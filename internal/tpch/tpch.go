// Package tpch generates the TPC-H data the paper evaluates on and holds
// the queries it measures (Q1, Q3, Q4, Q6) as SQL text. BuildQuery plans
// them through internal/sql, the front end every SQL query takes, so the
// reproduction runs the plans users run.
//
// The generator is a deterministic, in-process substitute for dbgen. It
// produces exactly the columns the evaluated queries touch, with the
// TPC-H-specified domains, correlations (ship/commit/receipt dates derive
// from the order date) and foreign-key structure (1-7 lineitems per
// order), so operator selectivities and join fan-outs match the benchmark.
//
// Because the paper runs at scale factors 100-140 (hundreds of gigabytes),
// Config.Ratio scales the *generated* row counts down for laptop runs
// while keeping the nominal scale factor for logical-size accounting: the
// capacity analyses (Figure 7, the HeavyDB Q3 abort) use LogicalRows /
// logical bytes, so they reproduce the paper's behaviour regardless of how
// much data is physically generated.
package tpch

import (
	"fmt"
	"math"

	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/vec"
)

// Base cardinalities at scale factor 1.
const (
	CustomersPerSF = 150_000
	OrdersPerSF    = 1_500_000
	// LineitemsPerSF is the expected lineitem count (4 per order).
	LineitemsPerSF = 6_000_000
)

// Market segments (c_mktsegment domain).
const (
	SegAutomobile int32 = iota
	SegBuilding
	SegFurniture
	SegHousehold
	SegMachinery
	NumSegments
)

// Order priorities (o_orderpriority domain, 1-URGENT .. 5-LOW).
const NumPriorities = 5

// NumRfls is the return-flag/line-status domain size for Q1 (A/F, N/F,
// N/O, R/F plus two rare combinations).
const NumRfls = 6

// Config parameterizes generation.
type Config struct {
	// SF is the nominal TPC-H scale factor (the paper uses 100-140).
	SF float64
	// Ratio scales generated row counts down from the nominal SF. 1
	// generates full size; 1/100 generates SF/100-sized tables while
	// logical accounting stays at SF. Defaults to 1.
	Ratio float64
	// Seed makes generation reproducible. The zero seed is valid.
	Seed uint64
}

func (c Config) ratio() float64 {
	if c.Ratio <= 0 || c.Ratio > 1 {
		return 1
	}
	return c.Ratio
}

// Dataset holds the generated tables and the logical (unscaled) sizes.
type Dataset struct {
	Config   Config
	Customer *storage.Table
	Orders   *storage.Table
	Lineitem *storage.Table
}

// rng is splitmix64: deterministic, seekable per partition, stdlib-free.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// rangeInt returns a uniform value in [lo, hi].
func (r *rng) rangeInt(lo, hi int) int {
	return lo + r.intn(hi-lo+1)
}

// Generate builds the dataset.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %v", cfg.SF)
	}
	scale := cfg.SF * cfg.ratio()
	nCust := int(math.Round(CustomersPerSF * scale))
	nOrd := int(math.Round(OrdersPerSF * scale))
	if nCust < 1 || nOrd < 1 {
		return nil, fmt.Errorf("tpch: SF %v with ratio %v produces an empty dataset", cfg.SF, cfg.ratio())
	}

	r := &rng{state: cfg.Seed ^ 0xADA3A27} // distinct stream per dataset

	// customer
	cCustkey := make([]int32, nCust)
	cMktseg := make([]int32, nCust)
	for i := range cCustkey {
		cCustkey[i] = int32(i + 1)
		cMktseg[i] = int32(r.intn(int(NumSegments)))
	}

	// orders + lineitem (generated together so line dates derive from
	// their order's date).
	oOrderkey := make([]int32, nOrd)
	oCustkey := make([]int32, nOrd)
	oOrderdate := make([]int32, nOrd)
	oPriority := make([]int32, nOrd)

	estLines := nOrd * 4
	lOrderkey := make([]int32, 0, estLines)
	lQuantity := make([]int32, 0, estLines)
	lExtPrice := make([]int32, 0, estLines)
	lDiscount := make([]int32, 0, estLines)
	lShipdate := make([]int32, 0, estLines)
	lCommitdate := make([]int32, 0, estLines)
	lReceiptdate := make([]int32, 0, estLines)
	lRfls := make([]int32, 0, estLines)

	// Orders span 1992-01-01 .. 1998-08-02 per the TPC-H spec.
	maxOrderDate := int(Date(1998, 8, 2))
	for i := 0; i < nOrd; i++ {
		oOrderkey[i] = int32(i + 1)
		oCustkey[i] = int32(r.rangeInt(1, nCust))
		odate := int32(r.intn(maxOrderDate + 1))
		oOrderdate[i] = odate
		oPriority[i] = int32(r.rangeInt(1, NumPriorities))

		lines := r.rangeInt(1, 7)
		for l := 0; l < lines; l++ {
			ship := odate + int32(r.rangeInt(1, 121))
			commit := odate + int32(r.rangeInt(30, 90))
			receipt := ship + int32(r.rangeInt(1, 30))
			lOrderkey = append(lOrderkey, oOrderkey[i])
			lQuantity = append(lQuantity, int32(r.rangeInt(1, 50)))
			// Price in cents: 90,000 .. 10,500,000 (roughly the
			// spec's extended price domain).
			lExtPrice = append(lExtPrice, int32(r.rangeInt(90_000, 10_500_000)))
			lDiscount = append(lDiscount, int32(r.rangeInt(0, 10)))
			lShipdate = append(lShipdate, ship)
			lCommitdate = append(lCommitdate, commit)
			lReceiptdate = append(lReceiptdate, receipt)
			lRfls = append(lRfls, int32(r.intn(NumRfls)))
		}
	}

	customer := storage.NewTable("customer", nCust)
	customer.MustAddColumn("c_custkey", vec.FromInt32(cCustkey))
	customer.MustAddColumn("c_mktsegment", vec.FromInt32(cMktseg))

	orders := storage.NewTable("orders", nOrd)
	orders.MustAddColumn("o_orderkey", vec.FromInt32(oOrderkey))
	orders.MustAddColumn("o_custkey", vec.FromInt32(oCustkey))
	orders.MustAddColumn("o_orderdate", vec.FromInt32(oOrderdate))
	orders.MustAddColumn("o_orderpriority", vec.FromInt32(oPriority))

	lineitem := storage.NewTable("lineitem", len(lOrderkey))
	lineitem.MustAddColumn("l_orderkey", vec.FromInt32(lOrderkey))
	lineitem.MustAddColumn("l_quantity", vec.FromInt32(lQuantity))
	lineitem.MustAddColumn("l_extendedprice", vec.FromInt32(lExtPrice))
	lineitem.MustAddColumn("l_discount", vec.FromInt32(lDiscount))
	lineitem.MustAddColumn("l_shipdate", vec.FromInt32(lShipdate))
	lineitem.MustAddColumn("l_commitdate", vec.FromInt32(lCommitdate))
	lineitem.MustAddColumn("l_receiptdate", vec.FromInt32(lReceiptdate))
	lineitem.MustAddColumn("l_rfls", vec.FromInt32(lRfls))

	return &Dataset{Config: cfg, Customer: customer, Orders: orders, Lineitem: lineitem}, nil
}

// Catalog wraps the dataset's tables.
func (d *Dataset) Catalog() *storage.Catalog {
	c := storage.NewCatalog()
	c.Add(d.Customer)
	c.Add(d.Orders)
	c.Add(d.Lineitem)
	return c
}

// LogicalRows reports the unscaled cardinality of a table at the nominal
// scale factor, for capacity analyses.
func (d *Dataset) LogicalRows(table string) int64 {
	switch table {
	case "customer":
		return int64(math.Round(CustomersPerSF * d.Config.SF))
	case "orders":
		return int64(math.Round(OrdersPerSF * d.Config.SF))
	case "lineitem":
		return int64(math.Round(LineitemsPerSF * d.Config.SF))
	default:
		return 0
	}
}

// QueryColumns lists the columns each evaluated query scans, as
// table/column pairs, for the input-size analysis of Figure 7.
func QueryColumns(q string) ([][2]string, error) {
	switch q {
	case "Q1":
		return [][2]string{
			{"lineitem", "l_shipdate"}, {"lineitem", "l_rfls"}, {"lineitem", "l_quantity"},
			{"lineitem", "l_extendedprice"}, {"lineitem", "l_discount"},
		}, nil
	case "Q3":
		return [][2]string{
			{"customer", "c_mktsegment"}, {"customer", "c_custkey"},
			{"orders", "o_orderdate"}, {"orders", "o_custkey"}, {"orders", "o_orderkey"},
			{"lineitem", "l_orderkey"}, {"lineitem", "l_shipdate"},
			{"lineitem", "l_extendedprice"}, {"lineitem", "l_discount"},
		}, nil
	case "Q4":
		return [][2]string{
			{"lineitem", "l_commitdate"}, {"lineitem", "l_receiptdate"}, {"lineitem", "l_orderkey"},
			{"orders", "o_orderdate"}, {"orders", "o_orderkey"}, {"orders", "o_orderpriority"},
		}, nil
	case "Q6":
		return [][2]string{
			{"lineitem", "l_shipdate"}, {"lineitem", "l_discount"},
			{"lineitem", "l_quantity"}, {"lineitem", "l_extendedprice"},
		}, nil
	default:
		return nil, fmt.Errorf("tpch: unknown query %q", q)
	}
}

// QueryInputBytes reports the logical (unscaled) bytes a query's scanned
// columns occupy at SF, assuming 4-byte integer columns.
func QueryInputBytes(q string, sf float64) (int64, error) {
	cols, err := QueryColumns(q)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, tc := range cols {
		var rows int64
		switch tc[0] {
		case "customer":
			rows = int64(math.Round(CustomersPerSF * sf))
		case "orders":
			rows = int64(math.Round(OrdersPerSF * sf))
		case "lineitem":
			rows = int64(math.Round(LineitemsPerSF * sf))
		}
		total += rows * 4
	}
	return total, nil
}

// DatasetBytes reports the logical size of the full generated schema at SF
// (all columns the generator materializes).
func DatasetBytes(sf float64) int64 {
	cust := int64(math.Round(CustomersPerSF*sf)) * 4 * 2
	ord := int64(math.Round(OrdersPerSF*sf)) * 4 * 4
	li := int64(math.Round(LineitemsPerSF*sf)) * 4 * 8
	return cust + ord + li
}
