// TPC-H on ADAMANT: generate benchmark data, run Q6 (heavy aggregation)
// and Q3 (multiple joins) through the SQL front end on CPU and GPU drivers
// under several execution models, and verify the results against
// host-side reference answers.
package main

import (
	"fmt"
	"log"

	adamant "github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/tpch"
)

func main() {
	ds, err := tpch.Generate(tpch.Config{SF: 1, Ratio: 1.0 / 16, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H SF1 (scaled 1/16): lineitem=%d orders=%d customer=%d rows\n",
		ds.Lineitem.Rows(), ds.Orders.Rows(), ds.Customer.Rows())

	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := eng.Plug(adamant.CoreI78700, adamant.OpenMP)
	if err != nil {
		log.Fatal(err)
	}

	cat := catalog(ds)
	runQ6(eng, cat, ds, "GPU/CUDA", gpu)
	runQ6(eng, cat, ds, "CPU/OpenMP", cpu)
	runQ3(eng, cat, ds, gpu)
}

// catalog hands the generated tables to the engine's SQL front end.
func catalog(ds *tpch.Dataset) *adamant.Catalog {
	var tables []*adamant.Table
	for _, st := range []*storage.Table{ds.Lineitem, ds.Orders, ds.Customer} {
		t := adamant.NewTable(st.Name, st.Rows())
		for _, col := range st.Columns() {
			if err := t.AddInt32(col.Name, col.Data.I32()); err != nil {
				log.Fatal(err)
			}
		}
		tables = append(tables, t)
	}
	return adamant.NewCatalog(tables...)
}

func runQ6(eng *adamant.Engine, cat *adamant.Catalog, ds *tpch.Dataset, label string, dev adamant.DeviceID) {
	want := tpch.RefQ6(ds)
	fmt.Printf("\nQ6 on %s (reference revenue %d):\n", label, want)
	for _, model := range []adamant.Model{adamant.Chunked, adamant.FourPhaseChunked, adamant.FourPhasePipelined} {
		res, err := eng.Query(cat, dev, tpch.SQLQ6, adamant.QueryOptions{ExecOptions: adamant.ExecOptions{Model: model, ChunkElems: 1 << 16}})
		if err != nil {
			log.Fatalf("Q6 %v: %v", model, err)
		}
		got := res.Int64("revenue")[0]
		status := "OK"
		if got != want {
			status = fmt.Sprintf("MISMATCH (got %d)", got)
		}
		fmt.Printf("  %-20v %-10v %s\n", model, res.Stats().Elapsed, status)
	}
}

func runQ3(eng *adamant.Engine, cat *adamant.Catalog, ds *tpch.Dataset, dev adamant.DeviceID) {
	res, err := eng.Query(cat, dev, tpch.SQLQ3, adamant.QueryOptions{ExecOptions: adamant.ExecOptions{Model: adamant.FourPhasePipelined, ChunkElems: 1 << 16}})
	if err != nil {
		log.Fatalf("Q3: %v", err)
	}

	want := tpch.RefQ3(ds)
	keys := res.Int64("l_orderkey")
	revs := res.Int64("revenue")
	mismatches := 0
	for i := range keys {
		if want[keys[i]] != revs[i] {
			mismatches++
		}
	}
	fmt.Printf("\nQ3 on GPU/CUDA (4-phase pipelined): %d groups, %d mismatches vs reference, simulated %v\n",
		len(keys), mismatches, res.Stats().Elapsed)

	// Top-3 revenue groups, joined back to order metadata on the host.
	for rank := 0; rank < 3 && rank < len(keys); rank++ {
		best := rank
		for i := rank; i < len(keys); i++ {
			if revs[i] > revs[best] {
				best = i
			}
		}
		keys[rank], keys[best] = keys[best], keys[rank]
		revs[rank], revs[best] = revs[best], revs[rank]
		fmt.Printf("  #%d: orderkey=%d revenue=%d\n", rank+1, keys[rank], revs[rank])
	}
}
