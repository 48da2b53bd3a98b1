package experiments

import (
	"io"

	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// Fig5MapReduce reproduces Figure 5: throughput of the MAP and AGG_BLOCK
// (reduce) primitives over 2^28 random integers on every driver of both
// setups. Expected shape: the simple streaming primitives are largely
// SDK-insensitive per device class, with GPUs far above CPUs.
func Fig5MapReduce(cfg Config, w io.Writer) error {
	n := 1 << 28
	if cfg.Quick {
		n = 1 << 22
	}

	t := NewTable("Figure 5: map and reduce throughput (million values/s), 2^28 ints",
		"setup", "driver", "map Mval/s", "reduce Mval/s")

	for _, setup := range []simhw.Setup{simhw.Setup1, simhw.Setup2} {
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
			a := randomInt32(n, 1<<20, cfg.Seed)
			bufA, err := p.place(a)
			if err != nil {
				return err
			}
			bufB, err := p.place(randomInt32(n, 1<<20, cfg.Seed+1))
			if err != nil {
				return err
			}
			out, err := p.alloc(vec.Int64, n)
			if err != nil {
				return err
			}
			mapDur, err := p.run("map_mul_i32_i64", []devmem.BufferID{bufA, bufB, out})
			if err != nil {
				return err
			}
			scalar, err := p.alloc(vec.Int64, 1)
			if err != nil {
				return err
			}
			redDur, err := p.run("agg_block_i32", []devmem.BufferID{bufA, scalar}, int64(kernels.AggSum))
			if err != nil {
				return err
			}
			t.Add(setup.Name, d.Info().Name, mops(n, mapDur), mops(n, redDur))
			p.free(bufA, bufB, out, scalar)
		}
	}
	return report(w, t)
}
