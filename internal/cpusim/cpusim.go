// Package cpusim is a trace-driven out-of-order core timing model, standing
// in for the PTLsim full-system simulations of §V.
//
// The paper uses PTLsim only to vary the main-memory access latency
// (10/12/20/100 ns, Table IV) and observe the application slowdown, with
// read latency assumed equal to write latency (so results are a performance
// lower bound).  The mechanisms that let applications tolerate long memory
// latency are exactly the ones this model captures:
//
//   - overlap with computation: independent instructions issue while loads
//     are outstanding, bounded by the reorder-buffer window;
//   - memory-level parallelism: multiple misses overlap, bounded by the
//     miss-buffer depth (Table III: 64 entries);
//   - locality filtering: a two-level cache hierarchy (Table II) turns most
//     references into 1- or 5-cycle hits (Table III) so that only last-level
//     misses see the technology-dependent latency.
//
// The core retires instructions in order through a circular reorder buffer:
// an instruction can issue only when an issue slot and a reorder-buffer
// entry are free, and retires no earlier than its predecessor.
package cpusim

import (
	"fmt"
	"math"
	"math/bits"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/trace"
)

// Config parametrizes the core, following Table III of the paper.
type Config struct {
	// FreqGHz is the core clock (Table III: 2.266 GHz).
	FreqGHz float64
	// IssueWidth is instructions issued per cycle.
	IssueWidth int
	// ROB is the reorder-buffer (instruction window) depth.
	ROB int
	// MissBuffer bounds simultaneously outstanding main-memory misses
	// (Table III: 64).
	MissBuffer int
	// L1HitCycles and L2HitCycles are the hit latencies (Table III: 1, 5).
	L1HitCycles int
	L2HitCycles int
	// MemLatencyNS is the main-memory access latency under study; reads and
	// writes share it, as §V assumes.
	MemLatencyNS float64
	// PrefetchStreams is the number of sequential streams the hardware
	// prefetcher tracks.  A miss that continues a tracked stream has been
	// fetched ahead of use and is charged the L2 hit latency instead of the
	// memory latency — the prefetching §V names among the mechanisms that
	// hide memory access time.  Zero disables the prefetcher (negative
	// also disables; use the ablation benchmarks to compare).
	PrefetchStreams int
	// Cache configures the two-level hierarchy (defaults to Table II).
	Cache cachesim.Config
	// MemSink optionally receives the main-memory transactions generated
	// by the core's cache misses in batches, each stamped with the core's
	// cycle at issue.  Feeding these to a dramsim.MemorySystem with
	// CPUFreqGHz set couples the timing and power simulators, §IV's
	// integrated mode.  Wrap a legacy per-transaction consumer with
	// cachesim.PerTx.
	MemSink trace.TxSink
}

// PaperConfig returns the Table II/III configuration with the given memory
// latency.
func PaperConfig(memLatencyNS float64) Config {
	return Config{
		FreqGHz:         2.266,
		IssueWidth:      4,
		ROB:             128,
		MissBuffer:      64,
		L1HitCycles:     1,
		L2HitCycles:     5,
		MemLatencyNS:    memLatencyNS,
		PrefetchStreams: 16,
		Cache:           cachesim.PaperConfig(),
	}
}

func (c Config) validate() error {
	// The comparisons are written so that NaN fails them: NaN <= 0 is
	// false, so a plain non-positive check would let it through.
	if !(c.FreqGHz > 0) || math.IsInf(c.FreqGHz, 0) {
		return fmt.Errorf("cpusim: frequency %v is not a positive finite number", c.FreqGHz)
	}
	if c.IssueWidth <= 0 || c.ROB <= 0 || c.MissBuffer <= 0 {
		return fmt.Errorf("cpusim: non-positive core resources %+v", c)
	}
	if c.L1HitCycles <= 0 || c.L2HitCycles < c.L1HitCycles {
		return fmt.Errorf("cpusim: implausible hit latencies %+v", c)
	}
	if !(c.MemLatencyNS > 0) || math.IsInf(c.MemLatencyNS, 0) {
		return fmt.Errorf("cpusim: memory latency %v ns is not a positive finite number", c.MemLatencyNS)
	}
	return nil
}

// service is the latency-independent outcome of one reference: the part of
// the memory system that services it.  Only the timing of a service class
// depends on the memory latency, so a latency sweep classifies each
// reference once and times it at every sweep point.
type service uint8

const (
	serviceL1 service = iota
	serviceL2
	// servicePrefetch is a last-level miss the stream prefetcher fetched
	// ahead of use.
	servicePrefetch
	serviceMem
)

// classifier is the latency-independent half of a core: the Table II
// hierarchy and the stream prefetcher, which together give every reference
// its service class.
type classifier struct {
	hw *cachesim.Hierarchy
	// lineShift is log2 of the cache line size, the prefetcher's
	// address-to-line shift.
	lineShift int

	// stream prefetcher: last line address per tracked stream.
	streams   []uint64
	streamRot int
}

func newClassifier(cfg Config) (classifier, error) {
	if cfg.Cache.L1.SizeBytes == 0 {
		cfg.Cache = cachesim.PaperConfig()
	}
	hw, err := cachesim.New(cfg.Cache, cfg.MemSink)
	if err != nil {
		return classifier{}, err
	}
	k := classifier{hw: hw, lineShift: bits.TrailingZeros(uint(hw.LineSize()))}
	if cfg.PrefetchStreams > 0 {
		k.streams = make([]uint64, cfg.PrefetchStreams)
	}
	return k, nil
}

// classify runs one reference through the hierarchy and the prefetcher.
func (k *classifier) classify(a trace.Access) service {
	switch k.hw.Access(a) {
	case cachesim.ServicedL1:
		return serviceL1
	case cachesim.ServicedL2:
		return serviceL2
	}
	if k.prefetched(a.Addr) {
		return servicePrefetch
	}
	return serviceMem
}

// prefetched reports whether a missing line continues one of the tracked
// sequential streams, and allocates a new stream (round-robin) otherwise.
func (k *classifier) prefetched(addr uint64) bool {
	if len(k.streams) == 0 {
		return false
	}
	line := addr >> k.lineShift
	for i, s := range k.streams {
		if line == s+1 || line == s {
			k.streams[i] = line
			return line != s // re-touching the same line is not a stream hit
		}
	}
	k.streams[k.streamRot] = line
	k.streamRot = (k.streamRot + 1) % len(k.streams)
	return false
}

// timing is the latency-dependent half of a core: the issue clock, the
// reorder-buffer ring, the miss FIFO and the run statistics.  It owns no
// cache state, so a sweep keeps one per memory latency at the cost of two
// small rings each.
type timing struct {
	freqGHz    float64
	rob        int
	missBuffer int
	// Service latencies in cycles.  issueStep is the issue bandwidth cost
	// of one instruction (1/IssueWidth).
	l1Lat, l2Lat, memLat float64
	issueStep            float64

	// clock is the next issue slot in fractional cycles: each instruction
	// advances it by issueStep.
	clock float64
	// retire[i%ROB] is the retire cycle of the i-th most recent instruction.
	retire []float64
	pos    int
	filled int
	// lastRetire enforces in-order retirement.
	lastRetire float64

	// outstanding main-memory misses: completion cycles, FIFO (completions
	// are monotone because issue is monotone and latency constant).
	misses []float64
	mHead  int
	mCount int

	// statistics
	instrs       uint64
	memRefs      uint64
	l1Hits       uint64
	l2Hits       uint64
	memAccess    uint64
	prefetchHits uint64 // memory misses hidden by the stream prefetcher
	robStalls    uint64 // issues delayed by a full window
	missStalls   uint64 // issues delayed by a full miss buffer
	// stall-cycle attribution: cycles the issue clock jumped while waiting
	// on the window or the miss buffer.
	robStallCycles  float64
	missStallCycles float64
}

// newTiming builds the timing state of a validated configuration.
func newTiming(cfg Config) timing {
	return timing{
		freqGHz:    cfg.FreqGHz,
		rob:        cfg.ROB,
		missBuffer: cfg.MissBuffer,
		l1Lat:      float64(cfg.L1HitCycles),
		l2Lat:      float64(cfg.L2HitCycles),
		memLat:     cfg.MemLatencyNS * cfg.FreqGHz,
		issueStep:  1.0 / float64(cfg.IssueWidth),
		retire:     make([]float64, cfg.ROB),
		misses:     make([]float64, cfg.MissBuffer),
	}
}

// issueOne issues a single instruction with the given execution latency and
// returns its retire cycle.
func (t *timing) issueOne(lat float64, isMemMiss bool) float64 {
	// Claim an issue slot.
	t.clock += t.issueStep
	issue := t.clock

	// The reorder buffer must have a free entry: the instruction ROB
	// positions ago must have retired.
	if t.filled == t.rob {
		if oldest := t.retire[t.pos]; oldest > issue {
			t.robStallCycles += oldest - issue
			issue = oldest
			t.clock = issue
			t.robStalls++
		}
	} else {
		t.filled++
	}

	// A main-memory miss needs a miss-buffer entry.
	if isMemMiss {
		if t.mCount == t.missBuffer {
			if head := t.misses[t.mHead]; head > issue {
				t.missStallCycles += head - issue
				issue = head
				t.clock = issue
				t.missStalls++
			}
			if t.mHead++; t.mHead == t.missBuffer {
				t.mHead = 0
			}
			t.mCount--
		}
		tail := t.mHead + t.mCount
		if tail >= t.missBuffer {
			tail -= t.missBuffer
		}
		t.misses[tail] = issue + lat
		t.mCount++
	}

	done := issue + lat
	if done < t.lastRetire {
		done = t.lastRetire // in-order retirement
	}
	t.lastRetire = done
	t.retire[t.pos] = done
	if t.pos++; t.pos == t.rob {
		t.pos = 0
	}
	t.instrs++
	return done
}

// issueGap issues gap single-cycle compute instructions.
func (t *timing) issueGap(gap uint64) {
	for i := uint64(0); i < gap; i++ {
		t.issueOne(1, false)
	}
}

// refLatency counts one memory reference of the given service class and
// returns the execution latency and miss-buffer claim it issues with.
func (t *timing) refLatency(svc service, write bool) (lat float64, isMemMiss bool) {
	t.memRefs++
	switch svc {
	case serviceL1:
		lat = t.l1Lat
		t.l1Hits++
	case serviceL2:
		lat = t.l2Lat
		t.l2Hits++
	case servicePrefetch:
		// The stream prefetcher fetched this line ahead of use; the
		// demand access finds it in (or on its way to) the L2.
		lat = t.l2Lat
		t.prefetchHits++
	default:
		lat = t.memLat
		isMemMiss = true
		t.memAccess++
	}
	if write {
		// Stores retire through the store buffer: the cache state is
		// updated, but the instruction occupies its window slot for only a
		// hit latency — writes are not on the critical path (§V's uniform
		// read/write latency is applied to loads; buffered stores make the
		// model's tolerance of write latency explicit).
		if lat > t.l2Lat {
			lat = t.l2Lat
			isMemMiss = false
		}
	}
	return lat, isMemMiss
}

// Cycles returns the cycle at which the last instruction retires.
func (t *timing) Cycles() float64 { return t.lastRetire }

// Seconds converts Cycles to wall-clock seconds at the configured frequency.
func (t *timing) Seconds() float64 { return t.Cycles() / (t.freqGHz * 1e9) }

// IPC returns retired instructions per cycle.
func (t *timing) IPC() float64 {
	if t.Cycles() == 0 {
		return 0
	}
	return float64(t.instrs) / t.Cycles()
}

// Stats summarizes a finished run.
type Stats struct {
	Instructions uint64
	MemRefs      uint64
	L1Hits       uint64
	L2Hits       uint64
	MemAccesses  uint64
	PrefetchHits uint64
	ROBStalls    uint64
	MissStalls   uint64
	// ROBStallCycles and MissStallCycles attribute issue-clock jumps to
	// their cause; their sum over Cycles is the structural-stall share.
	ROBStallCycles  float64
	MissStallCycles float64
	Cycles          float64
	IPC             float64
}

// Stats returns the run summary.
func (t *timing) Stats() Stats {
	return Stats{
		Instructions:    t.instrs,
		MemRefs:         t.memRefs,
		L1Hits:          t.l1Hits,
		L2Hits:          t.l2Hits,
		MemAccesses:     t.memAccess,
		PrefetchHits:    t.prefetchHits,
		ROBStalls:       t.robStalls,
		MissStalls:      t.missStalls,
		ROBStallCycles:  t.robStallCycles,
		MissStallCycles: t.missStallCycles,
		Cycles:          t.Cycles(),
		IPC:             t.IPC(),
	}
}

// Core is the timing model: one classifier feeding one timing state.  It
// implements the batched trace.PerfSink contract the instrumentation tracer
// flushes into (FlushEvents), and the per-event Event(gap, access) entry
// point for direct drivers; events must arrive in program order either way.
// Cycles, Seconds, IPC and Stats report the run.
type Core struct {
	classifier
	timing
}

// New builds a Core.
func New(cfg Config) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, err := newClassifier(cfg)
	if err != nil {
		return nil, err
	}
	c := &Core{classifier: k, timing: newTiming(cfg)}
	if cfg.MemSink != nil {
		// Stamp outgoing transactions with the core clock at issue time;
		// delivery stays batched, so the downstream power simulator sees
		// real timing without a per-transaction interface call.
		k.hw.SetCycleSource(func() uint64 { return uint64(c.clock) })
	}
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Event consumes one memory reference preceded by gap compute instructions
// (the memtrace PerfSink contract).  The gap issues before the reference
// reaches the hierarchy, so transactions it emits carry the post-gap clock.
func (c *Core) Event(gap uint64, a trace.Access) {
	c.issueGap(gap)
	c.issueOne(c.refLatency(c.classify(a), a.IsWrite()))
}

// FlushEvents implements trace.PerfSink: one batch of the instruction-
// interleaved reference stream, delivered from the tracer's staging buffer
// so references and gaps travel in the same flush.
func (c *Core) FlushEvents(batch []trace.PerfEvent) error {
	for _, ev := range batch {
		c.Event(ev.Gap, ev.Access)
	}
	return nil
}

// Finish flushes the hierarchy's staged transaction batch into MemSink.
// Call once at end of replay when a MemSink is attached; without one it is
// a no-op.
func (c *Core) Finish() error {
	if err := c.hw.FlushTx(); err != nil {
		return err
	}
	return c.hw.Err()
}

// SweepResult is one point of a latency sweep.
type SweepResult struct {
	Device       string
	MemLatencyNS float64
	// Normalized is Stats.Cycles relative to the first (baseline) sweep
	// point.
	Normalized float64
	// Stats is the point's full run summary, equal to that of a Core with
	// PaperConfig(MemLatencyNS) driven by the same stream.
	Stats Stats
}

// sweeper is the sink of a one-pass sweep: it classifies each batch once
// and times the classified batch at every sweep point.
type sweeper struct {
	classifier
	points []timing
	svc    []service // per-batch classes, reused across flushes
}

// FlushEvents implements trace.PerfSink.
func (s *sweeper) FlushEvents(batch []trace.PerfEvent) error {
	s.svc = s.svc[:0]
	for _, ev := range batch {
		s.svc = append(s.svc, s.classify(ev.Access))
	}
	for i := range s.points {
		t := &s.points[i]
		for j, ev := range batch {
			t.issueGap(ev.Gap)
			t.issueOne(t.refLatency(s.svc[j], ev.Access.IsWrite()))
		}
	}
	return nil
}

// Sweep times one event stream at every memory latency and returns the
// runtimes normalized to the first entry (Figure 12's presentation).  Only
// the latency differs between points, and the hierarchy and prefetcher are
// latency-independent, so replay is called exactly once: each reference is
// classified once and timed on one timing state per latency.  A replay
// error aborts the sweep.
func Sweep(devices []string, latenciesNS []float64, replay func(sink trace.PerfSink) error) ([]SweepResult, error) {
	if len(devices) != len(latenciesNS) {
		return nil, fmt.Errorf("cpusim: %d devices but %d latencies", len(devices), len(latenciesNS))
	}
	if len(latenciesNS) == 0 {
		return nil, fmt.Errorf("cpusim: empty latency sweep")
	}
	sw := &sweeper{points: make([]timing, len(latenciesNS))}
	for i, lat := range latenciesNS {
		cfg := PaperConfig(lat)
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		sw.points[i] = newTiming(cfg)
	}
	k, err := newClassifier(PaperConfig(latenciesNS[0]))
	if err != nil {
		return nil, err
	}
	sw.classifier = k
	if err := replay(sw); err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(latenciesNS))
	base := sw.points[0].Cycles()
	for i := range sw.points {
		st := sw.points[i].Stats()
		norm := 0.0
		if base > 0 {
			norm = st.Cycles / base
		}
		out[i] = SweepResult{Device: devices[i], MemLatencyNS: latenciesNS[i], Normalized: norm, Stats: st}
	}
	return out, nil
}
