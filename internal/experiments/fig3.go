package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// Fig3Bandwidth reproduces Figure 3: achieved H2D and D2H bandwidth for
// CUDA vs OpenCL across GPUs, for pageable and pinned transfers, over a
// sweep of transfer sizes. The expected shape: bandwidth ramps with size,
// CUDA above OpenCL throughout, pinned above pageable, A100 above 2080 Ti.
func Fig3Bandwidth(cfg Config, w io.Writer) error {
	sizesMiB := []int{1, 4, 16, 64, 256, 1024}
	if cfg.Quick {
		sizesMiB = []int{1, 8, 64}
	}

	header := append([]string{"gpu", "sdk", "mode", "dir"}, sizeHeaders(sizesMiB)...)
	t := NewTable("Figure 3: data transfer bandwidth (GB/s) by SDK, GPU, direction, and transfer size", header...)
	t.Note = "H2D: host to device, D2H: device to host; pinned via add_pinned_memory"

	for _, gpu := range []*simhw.Spec{&simhw.RTX2080Ti, &simhw.A100} {
		for _, mk := range []struct {
			label string
			build func() device.Device
		}{
			{"CUDA", func() device.Device { return simcuda.New(gpu, nil) }},
			{"OpenCL", func() device.Device { return simopencl.NewGPU(gpu, nil) }},
		} {
			for _, pinned := range []bool{false, true} {
				mode := "pageable"
				if pinned {
					mode = "pinned"
				}
				h2d := []any{gpu.Name, mk.label, mode, "H2D"}
				d2h := []any{gpu.Name, mk.label, mode, "D2H"}
				for _, mib := range sizesMiB {
					up, down, err := measureTransfer(mk.build(), mib<<20, pinned)
					if err != nil {
						return err
					}
					h2d = append(h2d, up)
					d2h = append(d2h, down)
				}
				t.Add(h2d...)
				t.Add(d2h...)
			}
		}
	}
	return report(w, t)
}

func sizeHeaders(sizesMiB []int) []string {
	out := make([]string, len(sizesMiB))
	for i, s := range sizesMiB {
		out[i] = fmt.Sprintf("%dMiB", s)
	}
	return out
}

// measureTransfer times one H2D and one D2H transfer of the given size
// through the device interfaces and reports achieved GB/s.
func measureTransfer(d device.Device, bytes int, pinned bool) (h2d, d2h string, err error) {
	if err := d.Initialize(); err != nil {
		return "", "", err
	}
	n := bytes / 4
	host := vec.New(vec.Int32, n)

	var id devmem.BufferID
	if pinned {
		id, _, err = d.AddPinnedMemory(vec.Int32, n, d.CopyEngine().Avail())
	} else {
		id, _, err = d.PrepareMemory(vec.Int32, n, d.CopyEngine().Avail())
	}
	if err != nil {
		return "", "", err
	}
	start := d.CopyEngine().Avail()
	end, err := d.PlaceDataInto(id, 0, host, start)
	if err != nil {
		return "", "", err
	}
	h2d = gbps(int64(bytes), end.Sub(start))

	back := vec.New(vec.Int32, n)
	end2, err := d.RetrieveData(id, 0, n, back, end)
	if err != nil {
		return "", "", err
	}
	d2h = gbps(int64(bytes), end2.Sub(end))
	return h2d, d2h, d.DeleteMemory(id)
}
