package cpusim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nvscavenger/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	good := PaperConfig(10)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROB = 0 },
		func(c *Config) { c.MissBuffer = 0 },
		func(c *Config) { c.L1HitCycles = 0 },
		func(c *Config) { c.L2HitCycles = 0 }, // below L1
		func(c *Config) { c.MemLatencyNS = 0 },
		// NaN fails no <= comparison, and infinities are not latencies.
		func(c *Config) { c.MemLatencyNS = math.NaN() },
		func(c *Config) { c.MemLatencyNS = math.Inf(1) },
		func(c *Config) { c.MemLatencyNS = math.Inf(-1) },
		func(c *Config) { c.FreqGHz = math.NaN() },
		func(c *Config) { c.FreqGHz = math.Inf(1) },
		func(c *Config) { c.FreqGHz = math.Inf(-1) },
	}
	for i, mutate := range cases {
		cfg := PaperConfig(10)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(Config{})
}

func TestComputeOnlyIPCIsIssueWidth(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(100000, trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	ipc := core.IPC()
	if ipc < 3.9 || ipc > 4.0 {
		t.Fatalf("compute-only IPC = %v, want ~4 (issue width)", ipc)
	}
}

func TestL1HitIsCheap(t *testing.T) {
	core := MustNew(PaperConfig(10))
	// Repeatedly touch one line: first access misses, rest hit L1.
	for i := 0; i < 1000; i++ {
		core.Event(0, trace.Access{Addr: 64, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.L1Hits != 999 {
		t.Fatalf("L1 hits = %d, want 999", s.L1Hits)
	}
	// 1000 instructions, width 4, all 1-cycle: ~250 cycles + one miss.
	if s.Cycles > 300+s.Cycles*0 {
		t.Fatalf("cycles = %v, want ~250-300", s.Cycles)
	}
}

func TestMemoryLatencyMonotonicity(t *testing.T) {
	run := func(latNS float64) float64 {
		core := MustNew(PaperConfig(latNS))
		// Strided walk (one line per 4 KB page, beyond the stream
		// prefetcher's reach) over a range far larger than L2: every
		// access misses both caches.
		for i := 0; i < 20000; i++ {
			addr := uint64(i%131072) * 4096
			core.Event(2, trace.Access{Addr: addr, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	c10, c12, c20, c100 := run(10), run(12), run(20), run(100)
	if !(c10 <= c12 && c12 <= c20 && c20 <= c100) {
		t.Fatalf("cycles not monotone in latency: %v %v %v %v", c10, c12, c20, c100)
	}
	if c100 <= c10 {
		t.Fatal("10x latency should cost something on a miss-heavy stream")
	}
}

func TestMLPOverlapsIndependentMisses(t *testing.T) {
	// 64 independent misses with no intervening compute should overlap in
	// the miss buffer: total time far less than 64 serialized misses.
	core := MustNew(PaperConfig(100))
	n := 64
	for i := 0; i < n; i++ {
		core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	memLat := 100 * 2.266
	if core.Cycles() > memLat+float64(n) {
		t.Fatalf("cycles = %v: misses did not overlap (serial would be %v)",
			core.Cycles(), float64(n)*memLat)
	}
}

func TestMissBufferLimitsMLP(t *testing.T) {
	run := func(buf int) float64 {
		cfg := PaperConfig(100)
		cfg.MissBuffer = buf
		core := MustNew(cfg)
		for i := 0; i < 256; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	wide, narrow := run(64), run(1)
	if narrow <= wide*2 {
		t.Fatalf("1-entry miss buffer (%v cycles) should be much slower than 64-entry (%v)", narrow, wide)
	}
	if s := func() Stats {
		cfg := PaperConfig(100)
		cfg.MissBuffer = 1
		core := MustNew(cfg)
		for i := 0; i < 256; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Stats()
	}(); s.MissStalls == 0 {
		t.Fatal("narrow miss buffer should record miss stalls")
	}
}

func TestROBWindowLimitsOverlap(t *testing.T) {
	// A miss followed by ROB-1 dependent-free computes overlaps fully; with
	// many more computes than the window, the window fills and stalls.
	run := func(rob int) float64 {
		cfg := PaperConfig(100)
		cfg.ROB = rob
		core := MustNew(cfg)
		for i := 0; i < 50; i++ {
			core.Event(1000, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
		}
		return core.Cycles()
	}
	small, large := run(8), run(512)
	if small < large {
		t.Fatalf("smaller window should never be faster: rob8=%v rob512=%v", small, large)
	}
}

func TestStoresAreBuffered(t *testing.T) {
	// A stream of store misses must not pay full memory latency: stores
	// retire through the store buffer.
	mk := func(op trace.Op) float64 {
		core := MustNew(PaperConfig(100))
		for i := 0; i < 5000; i++ {
			core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: op})
		}
		return core.Cycles()
	}
	loads, stores := mk(trace.Read), mk(trace.Write)
	if stores >= loads {
		t.Fatalf("store stream (%v cycles) should be faster than load stream (%v)", stores, loads)
	}
}

func TestSecondsConversion(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(22660, trace.Access{Addr: 0, Size: 8, Op: trace.Read})
	sec := core.Seconds()
	want := core.Cycles() / 2.266e9
	if math.Abs(sec-want) > 1e-15 {
		t.Fatalf("Seconds = %v, want %v", sec, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	core := MustNew(PaperConfig(10))
	core.Event(10, trace.Access{Addr: 0, Size: 8, Op: trace.Read})       // mem miss
	core.Event(10, trace.Access{Addr: 8, Size: 8, Op: trace.Read})       // L1 hit
	core.Event(10, trace.Access{Addr: 1 << 30, Size: 8, Op: trace.Read}) // mem miss
	s := core.Stats()
	if s.Instructions != 33 {
		t.Fatalf("instructions = %d, want 33", s.Instructions)
	}
	if s.MemRefs != 3 {
		t.Fatalf("mem refs = %d, want 3", s.MemRefs)
	}
	if s.L1Hits != 1 || s.MemAccesses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", s.L1Hits, s.MemAccesses)
	}
	if s.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
}

func TestSweepNormalization(t *testing.T) {
	replay := func(sink trace.PerfSink) error {
		batch := make([]trace.PerfEvent, 0, 1024)
		for i := 0; i < 5000; i++ {
			batch = append(batch, trace.PerfEvent{Gap: 5, Access: trace.Access{Addr: uint64(i%65536) * 64, Size: 8, Op: trace.Read}})
			if len(batch) == cap(batch) {
				if err := sink.FlushEvents(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		return sink.FlushEvents(batch)
	}
	res, err := Sweep(
		[]string{"DRAM", "MRAM", "STTRAM", "PCRAM"},
		[]float64{10, 12, 20, 100},
		replay,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Normalized != 1 {
		t.Fatalf("baseline normalized = %v, want 1", res[0].Normalized)
	}
	for i := 1; i < 4; i++ {
		if res[i].Normalized < res[i-1].Normalized {
			t.Fatalf("normalized runtime not monotone: %+v", res)
		}
	}
	if res[3].Normalized <= 1.0 {
		t.Fatal("PCRAM (100ns) must show some slowdown on a miss-heavy stream")
	}
}

func TestSweepLengthMismatch(t *testing.T) {
	_, err := Sweep([]string{"a"}, []float64{1, 2}, func(trace.PerfSink) error { return nil })
	if err == nil {
		t.Fatal("mismatched sweep inputs must error")
	}
}

func TestPrefetcherHidesSequentialStreams(t *testing.T) {
	run := func(streams int) Stats {
		cfg := PaperConfig(100)
		cfg.PrefetchStreams = streams
		core := MustNew(cfg)
		// A pure sequential walk over 16 MB (new line every 8 loads).
		for i := 0; i < 200000; i++ {
			core.Event(2, trace.Access{Addr: uint64(i) * 8, Size: 8, Op: trace.Read})
		}
		return core.Stats()
	}
	with, without := run(16), run(0)
	if with.PrefetchHits == 0 {
		t.Fatal("sequential stream must produce prefetch hits")
	}
	if without.PrefetchHits != 0 {
		t.Fatal("disabled prefetcher must not hit")
	}
	if with.Cycles >= without.Cycles {
		t.Fatalf("prefetcher did not help: %v >= %v", with.Cycles, without.Cycles)
	}
	// Nearly every line after the first should be covered.
	if frac := float64(with.PrefetchHits) / float64(with.PrefetchHits+with.MemAccesses); frac < 0.9 {
		t.Fatalf("prefetch coverage = %.3f on a pure stream, want > 0.9", frac)
	}
}

// TestPrefetcherFollowsConfiguredLineSize pins the prefetcher's line
// granularity to the hierarchy's: with 128 B lines, a 128 B-stride read-miss
// stream advances one line per reference and must be recognised as a
// stream (a hard-coded 64 B shift sees every other line and never hits).
func TestPrefetcherFollowsConfiguredLineSize(t *testing.T) {
	cfg := PaperConfig(100)
	cfg.Cache.L1.LineSize = 128
	cfg.Cache.L2.LineSize = 128
	core := MustNew(cfg)
	for i := 0; i < 20000; i++ {
		core.Event(2, trace.Access{Addr: uint64(i) * 128, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.PrefetchHits == 0 {
		t.Fatalf("128 B-stride stream over 128 B lines scored no prefetch hits (%d memory accesses)", s.MemAccesses)
	}
	if frac := float64(s.PrefetchHits) / float64(s.PrefetchHits+s.MemAccesses); frac < 0.9 {
		t.Fatalf("prefetch coverage = %.3f on a pure 128 B-line stream, want > 0.9", frac)
	}
}

func TestPrefetcherIgnoresRandomAccess(t *testing.T) {
	cfg := PaperConfig(100)
	core := MustNew(cfg)
	// 4 KB-strided pseudo-random pattern: no sequential lines.
	for i := 0; i < 20000; i++ {
		core.Event(2, trace.Access{Addr: uint64((i*2654435761)%1048576) * 4096, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.PrefetchHits > s.MemAccesses/20 {
		t.Fatalf("prefetcher hit %d of %d on random traffic", s.PrefetchHits, s.MemAccesses)
	}
}

// Property: cycles are monotone non-decreasing in memory latency for any
// access pattern.
func TestQuickLatencyMonotone(t *testing.T) {
	f := func(addrs []uint32, gaps []uint8) bool {
		n := len(addrs)
		if len(gaps) < n {
			n = len(gaps)
		}
		if n == 0 {
			return true
		}
		run := func(lat float64) float64 {
			core := MustNew(PaperConfig(lat))
			for i := 0; i < n; i++ {
				core.Event(uint64(gaps[i]), trace.Access{Addr: uint64(addrs[i]), Size: 8, Op: trace.Read})
			}
			return core.Cycles()
		}
		return run(10) <= run(20)+1e-9 && run(20) <= run(100)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: retire cycle is monotone over the run (in-order retirement).
func TestQuickRetireMonotone(t *testing.T) {
	f := func(addrs []uint32) bool {
		core := MustNew(PaperConfig(100))
		prev := 0.0
		for _, a := range addrs {
			core.Event(uint64(a%7), trace.Access{Addr: uint64(a), Size: 8, Op: trace.Read})
			if core.Cycles() < prev {
				return false
			}
			prev = core.Cycles()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStallCycleAttribution(t *testing.T) {
	// A tight ROB with long loads: the window stalls and the attributed
	// cycles must account for a visible share of the runtime.
	cfg := PaperConfig(100)
	cfg.ROB = 8
	core := MustNew(cfg)
	for i := 0; i < 200; i++ {
		core.Event(100, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	s := core.Stats()
	if s.ROBStallCycles <= 0 {
		t.Fatal("ROB stall cycles must be attributed")
	}
	if s.ROBStallCycles > s.Cycles {
		t.Fatalf("stall cycles %v exceed total %v", s.ROBStallCycles, s.Cycles)
	}
	// A narrow miss buffer attributes miss stalls instead.
	cfg = PaperConfig(100)
	cfg.MissBuffer = 1
	core = MustNew(cfg)
	for i := 0; i < 200; i++ {
		core.Event(0, trace.Access{Addr: uint64(i) * 4096, Size: 8, Op: trace.Read})
	}
	s = core.Stats()
	if s.MissStallCycles <= 0 {
		t.Fatal("miss-buffer stall cycles must be attributed")
	}
	// With serialization, miss stalls dominate the runtime.
	if s.MissStallCycles < s.Cycles/2 {
		t.Fatalf("miss stalls %v should dominate %v cycles", s.MissStallCycles, s.Cycles)
	}
}

// sweepStream is a seeded synthetic reference stream that exercises every
// service class and both structural stalls: reads and writes, accesses that
// straddle a line boundary, sequential runs the stream prefetcher follows,
// and bursts of random misses with no compute between them (filling the
// 64-entry miss buffer) or with long compute gaps (filling the ROB).
func sweepStream(n int, seed uint64) []trace.PerfEvent {
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]trace.PerfEvent, 0, n)
	seq := uint64(1 << 32)
	for len(out) < n {
		switch next() % 4 {
		case 0: // sequential run
			for i := 0; i < 64; i++ {
				out = append(out, trace.PerfEvent{Gap: next() % 4, Access: trace.Access{Addr: seq, Size: 8, Op: trace.Read}})
				seq += 8
			}
		case 1: // random miss burst, back to back
			for i := 0; i < 96; i++ {
				op := trace.Read
				if next()%5 == 0 {
					op = trace.Write
				}
				out = append(out, trace.PerfEvent{Access: trace.Access{Addr: (next() % (1 << 30)) &^ 7, Size: 8, Op: op}})
			}
		case 2: // misses separated by more compute than the window holds
			for i := 0; i < 8; i++ {
				out = append(out, trace.PerfEvent{Gap: 200 + next()%200, Access: trace.Access{Addr: (next() % (1 << 30)) &^ 7, Size: 8, Op: trace.Read}})
			}
		default: // a hot working set, line-straddling reads and writes
			for i := 0; i < 64; i++ {
				op := trace.Read
				if next()%3 == 0 {
					op = trace.Write
				}
				addr := (next() % (64 << 10)) | 60 // 60..67 crosses a 64 B line
				out = append(out, trace.PerfEvent{Gap: next() % 8, Access: trace.Access{Addr: addr, Size: 8, Op: op}})
			}
		}
	}
	return out[:n]
}

// replayBatches feeds the stream in tracer-sized batches.
func replayBatches(sink trace.PerfSink, events []trace.PerfEvent) error {
	for len(events) > 0 {
		n := min(len(events), 1000)
		if err := sink.FlushEvents(events[:n]); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// TestSweepMatchesIndependentCores: the one-pass sweep classifies each
// reference once and times it at every latency; every point's statistics
// must equal, bit for bit, those of a Core driven alone at that latency.
func TestSweepMatchesIndependentCores(t *testing.T) {
	events := sweepStream(200000, 7)
	devices := []string{"DRAM", "MRAM", "STTRAM", "PCRAM"}
	lats := []float64{10, 12, 20, 100}
	replays := 0
	res, err := Sweep(devices, lats, func(sink trace.PerfSink) error {
		replays++
		return replayBatches(sink, events)
	})
	if err != nil {
		t.Fatal(err)
	}
	if replays != 1 {
		t.Fatalf("Sweep called replay %d times, want 1", replays)
	}
	for i, lat := range lats {
		core := MustNew(PaperConfig(lat))
		if err := replayBatches(core, events); err != nil {
			t.Fatal(err)
		}
		want := core.Stats()
		got := res[i]
		if got.Stats != want {
			t.Errorf("%v ns: sweep stats\n%+v\nwant independent core\n%+v", lat, got.Stats, want)
		}
		if got.Device != devices[i] || got.MemLatencyNS != lat {
			t.Errorf("%v ns: result %+v mislabelled", lat, got)
		}
		if norm := want.Cycles / res[0].Stats.Cycles; got.Normalized != norm {
			t.Errorf("%v ns: normalized %v, want %v", lat, got.Normalized, norm)
		}
	}
	// The stream must reach every path the equality covers.
	s := res[3].Stats
	if s.L1Hits == 0 || s.L2Hits == 0 || s.PrefetchHits == 0 || s.MemAccesses == 0 {
		t.Errorf("stream misses a service class: %+v", s)
	}
	if s.ROBStalls == 0 || s.MissStalls == 0 {
		t.Errorf("stream never fills the ROB or the miss buffer: %+v", s)
	}
}

func TestSweepErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Sweep([]string{"DRAM"}, []float64{10}, func(sink trace.PerfSink) error {
		if err := sink.FlushEvents(sweepStream(100, 1)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Sweep error = %v, want the replay's", err)
	}
	replays := 0
	replay := func(trace.PerfSink) error {
		replays++
		return nil
	}
	if _, err := Sweep(nil, nil, replay); err == nil {
		t.Error("empty sweep must error")
	}
	if _, err := Sweep([]string{"DRAM", "X"}, []float64{10, math.NaN()}, replay); err == nil {
		t.Error("Sweep accepted a NaN latency")
	}
	if replays != 0 {
		t.Errorf("Sweep replayed %d times before rejecting its configuration", replays)
	}
}
