package adamant_test

import (
	"testing"

	adamant "github.com/adamant-db/adamant"
)

func salesCatalog(t *testing.T) *adamant.Catalog {
	t.Helper()
	sales := adamant.NewTable("sales", 6)
	regions := adamant.NewTable("regions", 3)
	for col, vals := range map[string][]int32{
		"amount": {10, 20, 30, 40, 50, 60},
		"region": {1, 2, 1, 3, 2, 1},
		"year":   {1992, 1993, 1992, 1994, 1992, 1995},
	} {
		if err := sales.AddInt32(col, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := regions.AddInt32("r_id", []int32{1, 2, 9}); err != nil {
		t.Fatal(err)
	}
	if err := regions.AddInt32("r_active", []int32{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	return adamant.NewCatalog(sales, regions)
}

func TestQueryAggregates(t *testing.T) {
	eng, gpu := engineWithGPU(t)
	cat := salesCatalog(t)

	res, err := eng.Query(cat, gpu, `
		SELECT SUM(amount) AS total, MIN(amount) AS lo, MAX(amount) AS hi, COUNT(*) AS n
		FROM sales WHERE year = 1992`, adamant.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int64("total")[0]; got != 10+30+50 {
		t.Errorf("total = %d", got)
	}
	if res.Int64("lo")[0] != 10 || res.Int64("hi")[0] != 50 || res.Int64("n")[0] != 3 {
		t.Errorf("lo/hi/n = %d/%d/%d", res.Int64("lo")[0], res.Int64("hi")[0], res.Int64("n")[0])
	}
}

func TestQueryGroupByWithSubquery(t *testing.T) {
	eng, gpu := engineWithGPU(t)
	cat := salesCatalog(t)

	res, err := eng.Query(cat, gpu, `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM sales
		WHERE region IN (SELECT r_id FROM regions WHERE r_active = 1)
		GROUP BY region`, adamant.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Active regions: 1 and 9; sales only reference 1.
	if res.Len("region") != 1 {
		t.Fatalf("groups = %d, want 1", res.Len("region"))
	}
	if res.Int64("region")[0] != 1 || res.Int64("total")[0] != 10+30+60 || res.Int64("n")[0] != 3 {
		t.Errorf("group = (%d, %d, %d)", res.Int64("region")[0], res.Int64("total")[0], res.Int64("n")[0])
	}
}

func TestQueryErrors(t *testing.T) {
	eng, gpu := engineWithGPU(t)
	cat := salesCatalog(t)

	if _, err := eng.Query(cat, gpu, `SELECT FROM`, adamant.QueryOptions{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := eng.Query(cat, gpu, `SELECT missing FROM sales`, adamant.QueryOptions{}); err == nil {
		t.Error("plan error not surfaced")
	}
}

func TestQueryModels(t *testing.T) {
	eng, gpu := engineWithGPU(t)

	n := 50000
	amounts := make([]int32, n)
	years := make([]int32, n)
	var want int64
	for i := range amounts {
		amounts[i] = int32(i % 100)
		years[i] = int32(1990 + i%10)
		if years[i] >= 1995 {
			want += int64(amounts[i])
		}
	}
	big := adamant.NewTable("big", n)
	if err := big.AddInt32("amount", amounts); err != nil {
		t.Fatal(err)
	}
	if err := big.AddInt32("year", years); err != nil {
		t.Fatal(err)
	}
	cat := adamant.NewCatalog(big)

	for _, model := range []adamant.Model{adamant.OperatorAtATime, adamant.Chunked, adamant.FourPhasePipelined} {
		res, err := eng.Query(cat, gpu, `SELECT SUM(amount) AS s FROM big WHERE year >= 1995`,
			adamant.QueryOptions{ExecOptions: adamant.ExecOptions{Model: model, ChunkElems: 4096}})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got := res.Int64("s")[0]; got != want {
			t.Errorf("%v: sum = %d, want %d", model, got, want)
		}
	}
}
