package device

import (
	"fmt"
	"sync"

	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// SimConfig parameterizes a simulated device.
type SimConfig struct {
	// Name identifies the device instance (defaults to spec/SDK names).
	Name string
	// Spec is the modelled hardware.
	Spec *simhw.Spec
	// SDK is the modelled software stack on top of it.
	SDK *simhw.SDKProfile
	// Format is the SDK's native memory-object format.
	Format devmem.Format
	// Registry supplies the kernel implementations. Nil means the
	// built-in registry.
	Registry *kernels.Registry
	// Workers overrides the goroutine fan-out of kernel bodies.
	Workers int
}

// Sim is a complete simulated co-processor. Kernel bodies run natively on
// the host (producing real results); all costs — transfers, launches,
// kernel execution — are charged in virtual time against the device's copy
// and compute engines according to the Spec and SDKProfile.
//
// Sim implements Device. It is safe for concurrent use, though the
// execution models serialize dependent operations through event times.
type Sim struct {
	cfg       SimConfig
	pool      *devmem.Pool
	copyTL    *vclock.Timeline
	computeTL *vclock.Timeline

	mu       sync.Mutex
	prepared map[string]bool
	stats    Stats
	inited   bool
	events   *EventLog
}

var _ Device = (*Sim)(nil)

// NewSim builds a simulated device from the config.
func NewSim(cfg SimConfig) *Sim {
	if cfg.Spec == nil || cfg.SDK == nil {
		panic("device: SimConfig requires Spec and SDK")
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("%s/%s", cfg.Spec.Name, cfg.SDK.Name)
	}
	if cfg.Registry == nil {
		cfg.Registry = kernels.NewRegistry()
	}
	capacity := cfg.Spec.MemoryBytes
	if cfg.Spec.HostResident() {
		capacity = 0 // host memory: unlimited for our purposes
	}
	return &Sim{
		cfg:       cfg,
		pool:      devmem.NewPool(cfg.Name, capacity),
		copyTL:    vclock.NewTimeline(cfg.Name + "/copy"),
		computeTL: vclock.NewTimeline(cfg.Name + "/compute"),
		prepared:  make(map[string]bool),
	}
}

// Initialize sets device properties and, on SDKs with runtime compilation,
// compiles every registered kernel, as the paper's runtime does at startup.
func (s *Sim) Initialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inited {
		return nil
	}
	if s.cfg.SDK.SupportsRuntimeCompile {
		for _, name := range s.cfg.Registry.Names() {
			s.prepared[name] = true
			s.stats.KernelsBuilt++
			s.stats.CompileTime += s.cfg.SDK.CompileCost
		}
	}
	s.inited = true
	return nil
}

// Info implements Device.
func (s *Sim) Info() Info {
	return Info{
		Name:               s.cfg.Name,
		SDK:                s.cfg.SDK.Name,
		MemoryBytes:        s.cfg.Spec.MemoryBytes,
		Format:             s.cfg.Format,
		HostResident:       s.cfg.Spec.HostResident(),
		PinnedTransfer:     s.cfg.SDK.SupportsPinned,
		PinnedRemapPenalty: s.cfg.SDK.PinnedRemapPenalty,
		RuntimeCompile:     s.cfg.SDK.SupportsRuntimeCompile,
	}
}

// allocCost models driver-side allocation latency: device allocations are
// cheap-ish; page-locking pinned memory is slow, which is why the 4-phase
// model amortizes it in a dedicated stage phase.
func (s *Sim) allocCost(bytes int64, pinnedMem bool) vclock.Duration {
	if s.cfg.Spec.HostResident() {
		return 1 * vclock.Microsecond
	}
	if pinnedMem {
		return 100*vclock.Microsecond + vclock.Duration(float64(bytes)/8.0) // ~8 GB/s page-locking
	}
	// cudaMalloc/cudaFree-style driver calls synchronize and map pages.
	return 25*vclock.Microsecond + vclock.Duration(float64(bytes)/200.0) // ~200 GB/s mapping
}

// PlaceData implements Device: allocate a buffer and copy host data into it.
func (s *Sim) PlaceData(data vec.Vector, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	if s.cfg.Spec.HostResident() {
		b := s.pool.Adopt(data, s.cfg.Format)
		start, end := s.copyTL.Schedule(ready, s.cfg.SDK.TransferLatency)
		s.addTransfer(true, data.Bytes(), s.cfg.SDK.TransferLatency)
		s.record("copy", "register", start, end)
		return b.ID, end, nil
	}
	b, err := s.pool.Alloc(data.Type(), data.Len(), s.cfg.Format)
	if err != nil {
		return 0, ready, err
	}
	ac := s.allocCost(b.Bytes(), false)
	allocStart, allocEnd := s.copyTL.Schedule(ready, ac)
	s.addOverhead(ac)
	s.noteAlloc(b.Bytes(), false)
	s.record("copy", "alloc", allocStart, allocEnd)

	b.Data.CopyFrom(data)
	cost := s.cfg.SDK.Transfer(s.cfg.Spec.Links.H2DPageable, data.Bytes())
	start, end := s.copyTL.Schedule(allocEnd, cost)
	s.addTransfer(true, data.Bytes(), cost)
	s.record("copy", "h2d", start, end)
	return b.ID, end, nil
}

// PlaceDataInto implements Device: copy host data into an existing buffer
// at an element offset. Transfers into pinned buffers use the fast pinned
// link (Figure 3).
func (s *Sim) PlaceDataInto(id devmem.BufferID, off int, data vec.Vector, ready vclock.Time) (vclock.Time, error) {
	b, err := s.pool.Get(id)
	if err != nil {
		return ready, err
	}
	if off < 0 || off+data.Len() > b.Data.Len() {
		return ready, fmt.Errorf("%w: write [%d,%d) into %d", devmem.ErrBadRange, off, off+data.Len(), b.Data.Len())
	}
	b.Data.Slice(off, off+data.Len()).CopyFrom(data)

	cost := s.cfg.SDK.Transfer(s.cfg.Spec.Links.H2DPageable, data.Bytes())
	label := "h2d"
	if b.Pinned {
		cost = s.cfg.SDK.TransferPinned(s.cfg.Spec.Links.H2DPinned, data.Bytes())
		label = "h2d-pinned"
	}
	if s.cfg.Spec.HostResident() {
		cost = s.cfg.SDK.TransferLatency
	}
	start, end := s.copyTL.Schedule(ready, cost)
	s.addTransfer(true, data.Bytes(), cost)
	s.record("copy", label, start, end)
	return end, nil
}

// RetrieveData implements Device: copy a device buffer range back to the
// host. Pinned buffers come back over the fast pinned link.
func (s *Sim) RetrieveData(id devmem.BufferID, off, n int, dst vec.Vector, ready vclock.Time) (vclock.Time, error) {
	b, err := s.pool.Get(id)
	if err != nil {
		return ready, err
	}
	if n < 0 {
		n = b.Data.Len() - off
	}
	if off < 0 || n < 0 || off+n > b.Data.Len() {
		return ready, fmt.Errorf("%w: read [%d,%d) of %d", devmem.ErrBadRange, off, off+n, b.Data.Len())
	}
	src := b.Data.Slice(off, off+n)
	if dst.Len() < n {
		return ready, fmt.Errorf("%w: retrieve %d elements into %d", devmem.ErrBadRange, n, dst.Len())
	}
	dst.Slice(0, n).CopyFrom(src)

	cost := s.cfg.SDK.Transfer(s.cfg.Spec.Links.D2HPageable, src.Bytes())
	if b.Pinned {
		cost = s.cfg.SDK.TransferPinned(s.cfg.Spec.Links.D2HPinned, src.Bytes())
	}
	if s.cfg.Spec.HostResident() {
		cost = s.cfg.SDK.TransferLatency
	}
	start, end := s.copyTL.Schedule(ready, cost)
	s.addTransfer(false, src.Bytes(), cost)
	s.record("copy", "d2h", start, end)
	return end, nil
}

// PrepareMemory implements Device.
func (s *Sim) PrepareMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	b, err := s.pool.Alloc(t, n, s.cfg.Format)
	if err != nil {
		return 0, ready, err
	}
	ac := s.allocCost(b.Bytes(), false)
	start, end := s.copyTL.Schedule(ready, ac)
	s.addOverhead(ac)
	s.noteAlloc(b.Bytes(), false)
	s.record("copy", "alloc", start, end)
	return b.ID, end, nil
}

// AddPinnedMemory implements Device.
func (s *Sim) AddPinnedMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	b, err := s.pool.AllocPinned(t, n, s.cfg.Format)
	if err != nil {
		return 0, ready, err
	}
	ac := s.allocCost(b.Bytes(), true)
	start, end := s.copyTL.Schedule(ready, ac)
	s.addOverhead(ac)
	s.noteAlloc(b.Bytes(), true)
	s.record("copy", "pinned-alloc", start, end)
	return b.ID, end, nil
}

// CreateChunk implements Device.
func (s *Sim) CreateChunk(id devmem.BufferID, off, n int) (devmem.BufferID, error) {
	b, err := s.pool.CreateChunk(id, off, n)
	if err != nil {
		return 0, err
	}
	return b.ID, nil
}

// TransformMemory implements Device: re-tag the memory object to the target
// SDK format without moving data.
func (s *Sim) TransformMemory(id devmem.BufferID, target devmem.Format, ready vclock.Time) (vclock.Time, error) {
	if err := s.pool.Transform(id, target); err != nil {
		return ready, err
	}
	const cost = 2 * vclock.Microsecond
	_, end := s.copyTL.Schedule(ready, cost)
	s.addOverhead(cost)
	return end, nil
}

// DeleteMemory implements Device. Freeing device memory is a synchronizing
// driver call (cudaFree-style), so naive models that free per chunk pay for
// it; view deletions are host-side bookkeeping and free.
func (s *Sim) DeleteMemory(id devmem.BufferID) error {
	b, err := s.pool.Get(id)
	if err != nil {
		return err
	}
	if !b.IsView() && !s.cfg.Spec.HostResident() {
		const cost = 20 * vclock.Microsecond
		s.copyTL.Schedule(s.copyTL.Avail(), cost)
		s.addOverhead(cost)
	}
	return s.pool.Free(id)
}

// PrepareKernel implements Device. SDKs without runtime compilation reject
// it, which is why the paper makes kernel management optional.
func (s *Sim) PrepareKernel(name, _ string) error {
	if !s.cfg.SDK.SupportsRuntimeCompile {
		return fmt.Errorf("%w: %s has no runtime compiler", ErrNotSupported, s.cfg.SDK.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prepared[name] = true
	s.stats.KernelsBuilt++
	s.stats.CompileTime += s.cfg.SDK.CompileCost
	return nil
}

// Execute implements Device: validate the launch, price it (SDK launch and
// argument-mapping overhead plus the SDK's price of the traffic the kernel
// declares), schedule it on the compute engine, and run the kernel body
// natively.
func (s *Sim) Execute(req ExecRequest, ready vclock.Time) (vclock.Time, error) {
	k, err := s.cfg.Registry.Lookup(req.Kernel)
	if err != nil {
		return ready, err
	}
	if s.cfg.SDK.SupportsRuntimeCompile {
		s.mu.Lock()
		ok := s.prepared[req.Kernel]
		s.mu.Unlock()
		if !ok {
			return ready, fmt.Errorf("%w: %q on %s", ErrKernelNotPrepared, req.Kernel, s.cfg.Name)
		}
	}

	args := make([]vec.Vector, len(req.Args))
	for i, id := range req.Args {
		b, err := s.pool.Get(id)
		if err != nil {
			return ready, fmt.Errorf("arg %d of %s: %w", i, req.Kernel, err)
		}
		if b.Format != s.cfg.Format {
			return ready, fmt.Errorf("%w: arg %d of %s is %s, device expects %s",
				ErrFormatMismatch, i, req.Kernel, b.Format, s.cfg.Format)
		}
		args[i] = b.Data
	}
	if err := k.Validate(args, req.Params); err != nil {
		return ready, err
	}

	launch := s.cfg.SDK.Launch(s.cfg.Spec, len(req.Args))
	body := s.cfg.SDK.Price(s.cfg.Spec, k.TrafficOf(args, req.Params))
	start, end := s.computeTL.Schedule(ready, launch+body)
	s.record("compute", req.Kernel, start, end)

	// A mis-typed launch must surface as a launch error, not crash the
	// engine — the same contract a real driver's error codes provide.
	ctx := &kernels.Ctx{Workers: s.cfg.Workers}
	if err := runKernel(k, ctx, args, req.Params); err != nil {
		return ready, fmt.Errorf("kernel %s on %s: %w", req.Kernel, s.cfg.Name, err)
	}

	s.mu.Lock()
	s.stats.Launches++
	s.stats.KernelTime += body
	s.stats.OverheadTime += launch
	s.mu.Unlock()
	return end, nil
}

// Sync implements Device: charge one chunk-boundary synchronization between
// the transfer and execution threads on the compute engine.
func (s *Sim) Sync(ready vclock.Time) vclock.Time {
	start, end := s.computeTL.Schedule(ready, s.cfg.SDK.SyncCost)
	s.addOverhead(s.cfg.SDK.SyncCost)
	s.record("compute", "sync", start, end)
	return end
}

// Buffer implements Device.
func (s *Sim) Buffer(id devmem.BufferID) (*devmem.Buffer, error) { return s.pool.Get(id) }

// CopyEngine implements Device.
func (s *Sim) CopyEngine() *vclock.Timeline { return s.copyTL }

// ComputeEngine implements Device.
func (s *Sim) ComputeEngine() *vclock.Timeline { return s.computeTL }

// MemStats implements Device.
func (s *Sim) MemStats() devmem.Stats { return s.pool.Stats() }

// Stats implements Device.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Reset implements Device: frees all device memory and rewinds timelines
// and counters; compiled kernels survive, as on a real device.
func (s *Sim) Reset() {
	s.pool.Reset()
	s.copyTL.Reset()
	s.computeTL.Reset()
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}

// runKernel executes a kernel body, converting panics (mis-typed buffers,
// out-of-range access) into errors.
func runKernel(k *kernels.Kernel, ctx *kernels.Ctx, args []vec.Vector, params []int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", kernels.ErrBadArgs, r)
		}
	}()
	return k.Fn(ctx, args, params)
}

func (s *Sim) addTransfer(h2d bool, bytes int64, cost vclock.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h2d {
		s.stats.H2DTransfers++
		s.stats.H2DBytes += bytes
	} else {
		s.stats.D2HTransfers++
		s.stats.D2HBytes += bytes
	}
	s.stats.TransferTime += cost
}

func (s *Sim) addOverhead(d vclock.Duration) {
	s.mu.Lock()
	s.stats.OverheadTime += d
	s.mu.Unlock()
}

func (s *Sim) noteAlloc(bytes int64, pinnedMem bool) {
	s.mu.Lock()
	if pinnedMem {
		s.stats.PinnedAlloced += bytes
	} else {
		s.stats.BytesAlloced += bytes
	}
	s.mu.Unlock()
}
