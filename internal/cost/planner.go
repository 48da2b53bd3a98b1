package cost

import (
	"fmt"
	"math"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/vclock"
)

// Candidate is one device the planner may choose: its ID on the live
// runtime and a constructor for fresh instances of the same device.
// Rehearsals run on an instance from New, never on the live device, so
// planning advances no live timeline and touches no live memory.
type Candidate struct {
	ID  device.ID
	New func() device.Device
}

// PlanOptions configures one planning pass.
type PlanOptions struct {
	// Candidates are the devices the planner may choose from. Required.
	Candidates []Candidate
	// MaxChunk caps the initial chunk size (default exec.DefaultChunkElems).
	MaxChunk int
	// MinChunk floors it (default exec.DefaultMinChunkElems).
	MinChunk int
	// MemFraction is the share of a device's memory the planned working
	// set may occupy before the chunk size halves (default 0.5, leaving
	// headroom for the adaptive-OOM ladder to never be the first resort).
	MemFraction float64
}

func (o PlanOptions) maxChunk() int {
	if o.MaxChunk > 0 {
		return o.MaxChunk
	}
	return exec.DefaultChunkElems
}

func (o PlanOptions) minChunk() int {
	if o.MinChunk > 0 {
		return o.MinChunk
	}
	return exec.DefaultMinChunkElems
}

func (o PlanOptions) memFraction() float64 {
	if o.MemFraction > 0 {
		return o.MemFraction
	}
	return 0.5
}

// Decision is one auto-planned configuration. Notes carries the
// deterministic human-readable audit trail that becomes the trace's
// autoplan annotation spans.
type Decision struct {
	Model      exec.Model
	ChunkElems int
	// MaxChunk bounds what the mid-query re-planner may grow the chunk
	// to (the memory-fit ceiling computed at plan time).
	MaxChunk int
	// Device and Driver name the device every pipeline is placed on.
	Device device.ID
	Driver string
	// Shape is the plan's graph.Fingerprint and Rows its dominant (most
	// scan rows) pipeline's input cardinality: with Model and Driver, the
	// catalog key a finished run feeds through ObserveQuery.
	Shape string
	Rows  int64
	// Predicted is the chosen cell's whole-query virtual time as the
	// catalog holds it: a rehearsal's elapsed time, EWMA-blended with the
	// real runs observed since.
	Predicted vclock.Duration
	// Rehearsals counts the (device, model) cells this pass ran because
	// the catalog lacked them; zero when the plan came from the catalog.
	Rehearsals int
	Notes      []string
}

// Planner plans queries from a catalog.
type Planner struct {
	Catalog *Catalog
}

// NewPlanner returns a planner over the given catalog.
func NewPlanner(c *Catalog) *Planner { return &Planner{Catalog: c} }

// Plan picks the device, execution model, and initial chunk size for the
// graph, places every node on the chosen device, and returns the decision.
// Every (candidate, model) cell is priced by its whole-query rate in the
// catalog; a missing cell is rehearsed first — the graph runs under that
// model on a fresh instance of the candidate, and its elapsed virtual time
// enters the catalog. The fastest cell wins, ties breaking in candidate and
// enum order. A cell whose rehearsal fails (say, out of memory) is not a
// candidate; if every cell fails, Plan returns the last error.
func (pl *Planner) Plan(g *graph.Graph, rt *hub.Runtime, opts PlanOptions) (*Decision, error) {
	if len(opts.Candidates) == 0 {
		return nil, fmt.Errorf("cost: no candidate devices")
	}
	pipelines, err := g.BuildPipelines()
	if err != nil {
		return nil, err
	}
	d := &Decision{Shape: graph.Fingerprint(g)}
	for i, p := range pipelines {
		if rows := int64(p.ScanRows(g)); i == 0 || rows > d.Rows {
			d.Rows = rows
		}
	}
	units := d.Rows
	if units < 1 {
		units = 1
	}

	placed := make([]device.ID, len(g.Nodes()))
	for i, n := range g.Nodes() {
		placed[i] = n.Device
	}
	found, failed := false, 0
	var lastErr error
	for _, cand := range opts.Candidates {
		drv, err := driverName(rt, cand.ID)
		if err != nil {
			return nil, restore(g, placed, err)
		}
		var scratch *hub.Runtime
		for _, m := range exec.Models() {
			k := queryKey(m.String(), drv, d.Shape, d.Rows)
			if _, ok := pl.Catalog.Lookup(k); !ok {
				if scratch == nil {
					if scratch, err = rehearsalRuntime(g, cand); err != nil {
						return nil, restore(g, placed, err)
					}
				}
				d.Rehearsals++
				elapsed, err := pl.rehearse(g, scratch, m, d.Rows, opts)
				if err != nil {
					failed++
					lastErr = err
					continue
				}
				pl.Catalog.Observe(k, units, elapsed)
			}
			e, ok := pl.Catalog.Lookup(k)
			if !ok {
				continue
			}
			if pred := vclock.Duration(math.Round(e.NsPerUnit * float64(units))); !found || pred < d.Predicted {
				found = true
				d.Model, d.Device, d.Driver, d.Predicted = m, cand.ID, drv, pred
			}
		}
	}
	if !found {
		return nil, restore(g, placed, lastErr)
	}
	placeAll(g, d.Device)

	source := "catalog"
	if d.Rehearsals > 0 {
		source = "rehearsed"
		d.Notes = append(d.Notes, fmt.Sprintf("rehearse %d cells on fresh instances (%d failed)", d.Rehearsals, failed))
	}
	d.Notes = append(d.Notes, fmt.Sprintf("model %v on %s (measured %v, %s)", d.Model, d.Driver, d.Predicted, source))

	// Chunk size: as large as the memory budget allows, never above the
	// input, never below the floor — the same rule the rehearsal ran under.
	d.ChunkElems, d.MaxChunk, err = pl.chunkFor(g, rt, d.Model, d.Rows, opts)
	if err != nil {
		return nil, err
	}
	d.Notes = append(d.Notes, fmt.Sprintf("chunk %d (rows %d, ceiling %d)", d.ChunkElems, d.Rows, d.MaxChunk))
	return d, nil
}

// rehearsalRuntime registers one fresh instance of the candidate on a
// runtime of its own and places every node of g on it. The instance is
// never fault-wrapped and never shares a buffer pool, so a rehearsal
// prices the plan on the device model alone.
func rehearsalRuntime(g *graph.Graph, cand Candidate) (*hub.Runtime, error) {
	if cand.New == nil {
		return nil, fmt.Errorf("cost: candidate device %d has no constructor to rehearse on", cand.ID)
	}
	rt := hub.NewRuntime()
	id, err := rt.Register(cand.New())
	if err != nil {
		return nil, err
	}
	placeAll(g, id)
	return rt, nil
}

// rehearse runs g, already placed on the rehearsal runtime, exactly as an
// auto-planned run would: under model m, at the chunk the memory-fit rule
// picks, with the drift re-planner armed. It returns the elapsed virtual
// time.
func (pl *Planner) rehearse(g *graph.Graph, rt *hub.Runtime, m exec.Model, rows int64, opts PlanOptions) (vclock.Duration, error) {
	chunk, ceiling, err := pl.chunkFor(g, rt, m, rows, opts)
	if err != nil {
		return 0, err
	}
	cell := Decision{ChunkElems: chunk, MaxChunk: ceiling}
	res, err := exec.Run(rt, g, exec.Options{Model: m, ChunkElems: chunk, Replan: cell.Replan()})
	if err != nil {
		return 0, err
	}
	return res.Stats.Elapsed, nil
}

// placeAll annotates every node of g with one device.
func placeAll(g *graph.Graph, id device.ID) {
	for _, n := range g.Nodes() {
		n.Device = id
	}
}

// restore puts g's nodes back on the devices they had before planning and
// passes err through.
func restore(g *graph.Graph, placed []device.ID, err error) error {
	for i, n := range g.Nodes() {
		n.Device = placed[i]
	}
	return err
}

// chunkFor sizes the initial chunk: start from the smaller of the cap and
// the input, then halve until the model's estimated demand fits inside the
// memory fraction on every non-host-resident device. Returns the chosen
// chunk and the fitting ceiling (what a re-plan may grow back to).
func (pl *Planner) chunkFor(g *graph.Graph, rt *hub.Runtime, m exec.Model, rows int64, opts PlanOptions) (int, int, error) {
	c := opts.maxChunk()
	if rows > 0 && int64(c) > rows {
		c = align64(int(rows))
	}
	if c < opts.minChunk() {
		c = opts.minChunk()
	}
	c = align64(c)
	for {
		demand, err := exec.EstimateDemand(g, exec.Options{Model: m, ChunkElems: c})
		if err != nil {
			return 0, 0, err
		}
		fits := true
		for id, bytes := range demand {
			dev, err := rt.Device(id)
			if err != nil {
				return 0, 0, err
			}
			info := dev.Info()
			if info.HostResident {
				continue
			}
			if float64(bytes) > opts.memFraction()*float64(info.MemoryBytes) {
				fits = false
				break
			}
		}
		if fits || c <= opts.minChunk() {
			return c, c, nil
		}
		half := align64(c / 2)
		if half < opts.minChunk() {
			half = opts.minChunk()
		}
		c = half
	}
}

// Replan returns the executor hook for mid-query re-planning: when a
// pipeline's observed cardinality drifts from the estimate by 2x in either
// direction, the chunk size re-sizes to the observed rows (within the
// plan's floor and memory ceiling) and the attempt restarts. The executor
// fires the hook at pipeline boundaries and applies at most one re-plan
// per query, so the state machine is plan -> observe -> (at most one)
// restart -> finish.
func (d *Decision) Replan() exec.ReplanFunc {
	return func(o exec.ReplanObservation) (int, bool) {
		if o.EstRows <= 0 || o.ActualRows <= 0 {
			return 0, false
		}
		if o.ActualRows < 2*o.EstRows && o.EstRows < 2*o.ActualRows {
			return 0, false
		}
		nc := align64(o.ActualRows)
		if nc > d.MaxChunk {
			nc = d.MaxChunk
		}
		if nc < 64 {
			nc = 64
		}
		if nc == o.ChunkElems {
			return 0, false
		}
		return nc, true
	}
}

func driverName(rt *hub.Runtime, id device.ID) (string, error) {
	dev, err := rt.Device(id)
	if err != nil {
		return "", err
	}
	return dev.Info().Name, nil
}

func align64(n int) int {
	if n < 64 {
		return 64
	}
	return (n + 63) &^ 63
}
