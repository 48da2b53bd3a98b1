package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// Fig9Primitives reproduces Figure 9: throughput profiles of the filter
// (bitmap and with materialization), hash aggregation, hash build and hash
// probe primitives on every driver of both setups.
//
// Expected shapes, per the paper:
//   - (a) filters are selectivity-insensitive; OpenCL beats OpenMP on CPU
//     and matches CUDA on GPU.
//   - (b) adding materialization drops GPUs to roughly 30% of the
//     bitmap-only throughput; CPUs barely notice.
//   - (c) OpenCL (GPU) hash aggregation degrades sharply with group count;
//     CUDA stays nearly flat.
//   - (d,e) hash build/probe throughput drops with input size on GPUs
//     (shared global table, atomic insertion); CPUs stay flat.
func Fig9Primitives(cfg Config, w io.Writer) error {
	nFilter := 1 << 26
	nHash := 1 << 24
	if cfg.Quick {
		nFilter = 1 << 20
		nHash = 1 << 18
	}

	for _, setup := range []simhw.Setup{simhw.Setup1, simhw.Setup2} {
		if err := fig9Filters(cfg, w, setup, nFilter); err != nil {
			return err
		}
		if err := fig9HashAgg(cfg, w, setup, nHash); err != nil {
			return err
		}
		if err := fig9BuildProbe(cfg, w, setup, nHash); err != nil {
			return err
		}
	}
	return nil
}

func fig9Filters(cfg Config, w io.Writer, setup simhw.Setup, n int) error {
	selectivities := []int{10, 30, 50, 70, 90}

	header := []string{"driver", "variant"}
	for _, s := range selectivities {
		header = append(header, fmt.Sprintf("sel%d%%", s))
	}
	t := NewTable(fmt.Sprintf("Figure 9(a,b) [%s]: filter throughput (million values/s) vs selectivity", setup.Name), header...)

	r, err := newRig(setup)
	if err != nil {
		return err
	}
	for _, drv := range r.drivers() {
		d, err := r.rt.Device(drv.ID)
		if err != nil {
			return err
		}
		p, err := newProf(d)
		if err != nil {
			return err
		}
		in := randomInt32(n, 100, cfg.Seed)
		bufIn, err := p.place(in)
		if err != nil {
			return err
		}
		bm, err := p.alloc(vec.Bits, n)
		if err != nil {
			return err
		}
		matOut, err := p.alloc(vec.Int32, n)
		if err != nil {
			return err
		}
		count, err := p.alloc(vec.Int64, 1)
		if err != nil {
			return err
		}

		bitmapRow := []any{d.Info().Name, "bitmap"}
		matRow := []any{d.Info().Name, "bitmap+materialize"}
		for _, sel := range selectivities {
			fDur, err := p.run("filter_bitmap_i32", []devmem.BufferID{bufIn, bm},
				int64(kernels.CmpLt), int64(sel), 0)
			if err != nil {
				return err
			}
			mDur, err := p.run("materialize_bitmap_i32", []devmem.BufferID{bufIn, bm, matOut, count})
			if err != nil {
				return err
			}
			bitmapRow = append(bitmapRow, mops(n, fDur))
			matRow = append(matRow, mops(n, fDur+mDur))
		}
		t.Add(bitmapRow...)
		t.Add(matRow...)
		p.free(bufIn, bm, matOut, count)
	}
	return report(w, t)
}

func fig9HashAgg(cfg Config, w io.Writer, setup simhw.Setup, n int) error {
	groupSweep := []int{1 << 8, 1 << 12, 1 << 16, 1 << 20}

	header := []string{"driver"}
	for _, g := range groupSweep {
		header = append(header, fmt.Sprintf("2^%d groups", log2(g)))
	}
	t := NewTable(fmt.Sprintf("Figure 9(c) [%s]: hash aggregation throughput (million values/s) vs group count", setup.Name), header...)

	r, err := newRig(setup)
	if err != nil {
		return err
	}
	for _, drv := range r.drivers() {
		d, err := r.rt.Device(drv.ID)
		if err != nil {
			return err
		}
		p, err := newProf(d)
		if err != nil {
			return err
		}
		row := []any{d.Info().Name}
		for _, groups := range groupSweep {
			keys, err := p.place(randomInt32(n, int32(groups), cfg.Seed))
			if err != nil {
				return err
			}
			vals, err := p.place(onesInt64(n))
			if err != nil {
				return err
			}
			table, err := p.alloc(vec.Int64, kernels.HashTableLen(groups))
			if err != nil {
				return err
			}
			if _, err := p.run("hash_table_init", []devmem.BufferID{table}); err != nil {
				return err
			}
			dur, err := p.run("hash_agg_i32_i64", []devmem.BufferID{keys, vals, table},
				int64(kernels.AggSum), int64(groups))
			if err != nil {
				return err
			}
			row = append(row, mops(n, dur))
			p.free(keys, vals, table)
		}
		t.Add(row...)
	}
	return report(w, t)
}

func fig9BuildProbe(cfg Config, w io.Writer, setup simhw.Setup, maxN int) error {
	var sizes []int
	for n := 1 << 20; n <= maxN; n <<= 2 {
		sizes = append(sizes, n)
	}
	if cfg.Quick {
		sizes = []int{1 << 14, 1 << 16, 1 << 18}
	}

	header := []string{"driver", "phase"}
	for _, n := range sizes {
		header = append(header, fmt.Sprintf("2^%d", log2(n)))
	}
	t := NewTable(fmt.Sprintf("Figure 9(d,e) [%s]: hash build/probe throughput (million values/s) vs data size", setup.Name), header...)

	r, err := newRig(setup)
	if err != nil {
		return err
	}
	for _, drv := range r.drivers() {
		d, err := r.rt.Device(drv.ID)
		if err != nil {
			return err
		}
		p, err := newProf(d)
		if err != nil {
			return err
		}
		buildRow := []any{d.Info().Name, "build"}
		probeRow := []any{d.Info().Name, "probe"}
		for _, n := range sizes {
			keys, err := p.place(sequentialInt32(n))
			if err != nil {
				return err
			}
			table, err := p.alloc(vec.Int64, kernels.HashTableLen(n))
			if err != nil {
				return err
			}
			if _, err := p.run("hash_table_init", []devmem.BufferID{table}); err != nil {
				return err
			}
			bDur, err := p.run("hash_build_pk_i32", []devmem.BufferID{keys, table}, 0)
			if err != nil {
				return err
			}
			bm, err := p.alloc(vec.Bits, n)
			if err != nil {
				return err
			}
			pDur, err := p.run("hash_probe_exists_i32", []devmem.BufferID{keys, table, bm})
			if err != nil {
				return err
			}
			buildRow = append(buildRow, mops(n, bDur))
			probeRow = append(probeRow, mops(n, pDur))
			p.free(keys, table, bm)
		}
		t.Add(buildRow...)
		t.Add(probeRow...)
	}
	return report(w, t)
}

func onesInt64(n int) vec.Vector {
	v := vec.New(vec.Int64, n)
	s := v.I64()
	for i := range s {
		s[i] = 1
	}
	return v
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
