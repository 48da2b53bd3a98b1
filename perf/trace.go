package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/vec"
)

// call names what a span timed: one op of the workload, or one of the
// device layer's interface functions.
type call uint8

const (
	callOp call = iota
	callInitialize
	callPlaceData
	callPlaceDataInto
	callRetrieveData
	callPrepareMemory
	callAddPinnedMemory
	callCreateChunk
	callTransformMemory
	callDeleteMemory
	callPrepareKernel
	callExecute
	numCalls
)

// calls gives each call its name in the trace file and the group its time
// is reported under: h2d and d2h move data, alloc and free are the devmem
// layer, execute is the kernels layer, other is the rest of the seam.
var calls = [numCalls]struct{ name, group string }{
	callOp:              {"Op", "op"},
	callInitialize:      {"Initialize", "other"},
	callPlaceData:       {"PlaceData", "h2d"},
	callPlaceDataInto:   {"PlaceDataInto", "h2d"},
	callRetrieveData:    {"RetrieveData", "d2h"},
	callPrepareMemory:   {"PrepareMemory", "alloc"},
	callAddPinnedMemory: {"AddPinnedMemory", "alloc"},
	callCreateChunk:     {"CreateChunk", "other"},
	callTransformMemory: {"TransformMemory", "other"},
	callDeleteMemory:    {"DeleteMemory", "free"},
	callPrepareKernel:   {"PrepareKernel", "other"},
	callExecute:         {"Execute", "execute"},
}

// runSpan is the parent of spans that belong to no op.
const runSpan = -1

// span is one timed interval. It holds no pointers, so the collector never
// scans the millions a run records: kernel indexes tracer.kernels.
type span struct {
	start, end int64 // ns since the tracer's epoch
	bytes      int64
	parent     int32
	call       call
	kernel     uint16
}

func (s span) dur() int64 { return s.end - s.start }

// spanBlock spans are allocated at a time, so recording never copies what
// it already holds.
const spanBlock = 1 << 16

// tracer keeps the traced run's spans in memory and the shape of every
// live device buffer, learned from the arguments the timing device sees.
type tracer struct {
	epoch   time.Time
	kernels []string          // index → name; 0 is "not a kernel"
	kernel  map[string]uint16 // read-only after newTracer

	mu        sync.Mutex
	recording bool
	blocks    [][]span
	n         int32
	// open is each client's op in flight, or runSpan.
	open   []int32
	shapes map[devmem.BufferID]shape
}

type shape struct {
	typ vec.Type
	n   int
}

func (s shape) bytes() int64 {
	if s.typ == vec.Bits {
		return 8 * int64((s.n+63)/64)
	}
	return s.typ.ElemBytes() * int64(s.n)
}

func newTracer(clients int) *tracer {
	t := &tracer{
		epoch:   time.Now(),
		kernels: []string{""},
		kernel:  make(map[string]uint16),
		open:    make([]int32, clients),
		shapes:  make(map[devmem.BufferID]shape),
	}
	for _, name := range kernels.NewRegistry().Names() {
		t.kernel[name] = uint16(len(t.kernels))
		t.kernels = append(t.kernels, name)
	}
	for c := range t.open {
		t.open[c] = runSpan
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record turns span recording on or off. Buffer shapes are tracked either
// way: a pooled column placed during warm-up is a kernel argument later.
func (t *tracer) record(on bool) {
	t.mu.Lock()
	t.recording = on
	t.mu.Unlock()
}

// add appends a span and returns its id; the caller holds t.mu.
func (t *tracer) add(s span) int32 {
	if len(t.blocks) == 0 || len(t.blocks[len(t.blocks)-1]) == spanBlock {
		t.blocks = append(t.blocks, make([]span, 0, spanBlock))
	}
	last := len(t.blocks) - 1
	t.blocks[last] = append(t.blocks[last], s)
	t.n++
	return t.n - 1
}

func (t *tracer) at(id int32) *span { return &t.blocks[id/spanBlock][id%spanBlock] }

// addDevice appends the span of a device call; the caller holds t.mu. With
// one client the span belongs to the op in flight. With several it belongs
// to the run: the device seam carries no query identity, so the caller's
// op is unknown.
func (t *tracer) addDevice(c call, start, end, bytes int64, kernel uint16) {
	if !t.recording {
		return
	}
	parent := int32(runSpan)
	if len(t.open) == 1 {
		parent = t.open[0]
	}
	t.add(span{start: start, end: end, bytes: bytes, parent: parent, call: c, kernel: kernel})
}

// The recorders below are called when a device call that began at start has
// just returned. They read the clock before taking the lock, so a span
// never includes the wait for another client's recording.

// timed records a call that creates and frees no buffer.
func (t *tracer) timed(c call, start, bytes int64) {
	end := t.now()
	t.mu.Lock()
	t.addDevice(c, start, end, bytes, 0)
	t.mu.Unlock()
}

// created records a call that, unless it failed, returned a new buffer of
// the given shape.
func (t *tracer) created(c call, start int64, id devmem.BufferID, s shape, err error) {
	end := t.now()
	t.mu.Lock()
	t.addDevice(c, start, end, s.bytes(), 0)
	if err == nil {
		t.shapes[id] = s
	}
	t.mu.Unlock()
}

// viewed records a CreateChunk: the view has its parent's element type.
func (t *tracer) viewed(start int64, parent, view devmem.BufferID, n int, err error) {
	end := t.now()
	t.mu.Lock()
	t.addDevice(callCreateChunk, start, end, 0, 0)
	if err == nil {
		t.shapes[view] = shape{t.shapes[parent].typ, n}
	}
	t.mu.Unlock()
}

// freed records a DeleteMemory.
func (t *tracer) freed(start int64, id devmem.BufferID) {
	end := t.now()
	t.mu.Lock()
	t.addDevice(callDeleteMemory, start, end, t.shapes[id].bytes(), 0)
	delete(t.shapes, id)
	t.mu.Unlock()
}

// retrieved records a RetrieveData of n elements from off; n < 0 means the
// rest of the buffer.
func (t *tracer) retrieved(start int64, id devmem.BufferID, off, n int, typ vec.Type) {
	end := t.now()
	t.mu.Lock()
	if n < 0 {
		n = t.shapes[id].n - off
	}
	t.addDevice(callRetrieveData, start, end, shape{typ, n}.bytes(), 0)
	t.mu.Unlock()
}

// launched records an Execute; its bytes are the sizes of its buffer
// arguments.
func (t *tracer) launched(start int64, kernel string, args []devmem.BufferID) {
	end := t.now()
	k := t.kernel[kernel]
	t.mu.Lock()
	var bytes int64
	for _, id := range args {
		bytes += t.shapes[id].bytes()
	}
	t.addDevice(callExecute, start, end, bytes, k)
	t.mu.Unlock()
}

// beginOp opens the span of the op a client is about to issue.
func (t *tracer) beginOp(client int) {
	t.mu.Lock()
	t.open[client] = t.add(span{parent: runSpan, call: callOp})
	t.mu.Unlock()
}

// endOp closes the client's op span with the clock the client measured the
// op by, so op spans and op samples are the same intervals.
func (t *tracer) endOp(client int, op opResult) {
	t.mu.Lock()
	s := t.at(t.open[client])
	s.start = int64(op.start.Sub(t.epoch))
	s.end = s.start + int64(op.wall)
	t.open[client] = runSpan
	t.mu.Unlock()
}

// each calls f with every span and its id, in recording order.
func (t *tracer) each(f func(id int32, s span)) {
	var id int32
	for _, b := range t.blocks {
		for _, s := range b {
			f(id, s)
			id++
		}
	}
}

// selfNS is a span's duration minus the part of it its children cover:
// the union of the child intervals, clipped to the span, so overlapping
// children are not subtracted twice.
func selfNS(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered, edge := int64(0), s.start
	for _, c := range children {
		lo, hi := max(c.start, edge), min(c.end, s.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// write stores every span as JSON in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload)
	enc := json.NewEncoder(w)
	t.each(func(id int32, s span) {
		if id > 0 {
			w.WriteByte(',')
		}
		// Encode's error is the writer's, which Flush reports below.
		_ = enc.Encode(struct {
			ID     int32  `json:"id"`
			Parent int32  `json:"parent"`
			Op     string `json:"op"`
			Name   string `json:"name"`
			Kernel string `json:"kernel,omitempty"`
			Bytes  int64  `json:"bytes"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{id, s.parent, calls[s.call].group, calls[s.call].name, t.kernels[s.kernel], s.bytes, s.start, s.end})
	})
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
