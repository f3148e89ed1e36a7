package main

import (
	"context"
	"fmt"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/nekmini"
)

// The stack workload executes nek5000 once per operation through the whole
// simulator: tracer -> Table II cache hierarchy -> one DDR3 power model,
// with the performance-event stream driving the CPU model at 10 ns memory
// latency.  Every layer does its per-reference work exactly once, so a
// per-reference hot-path change shows here.
const (
	stackApp   = "nek5000"
	stackScale = 0.25
	stackIters = 10
)

// stackStats is everything one execution simulated; every field must
// repeat exactly across executions.
type stackStats struct {
	refs                   uint64
	lookups, hits, scanned uint64
	l1, l2                 cachesim.LevelStats
	tx                     uint64
	cpu                    cpusim.Stats
	power                  dramsim.PowerReport
}

// stackRun is one assembled stack.  The benchmark owns the sinks behind
// the tracer, so the traced variant can time each layer's entry point.
type stackRun struct {
	app  apps.App
	st   *pipeline.Stack
	hier *cachesim.Hierarchy
	core *cpusim.Core
	dram *dramsim.MemorySystem

	batches uint64 // access batches flushed into the hierarchy (traced only)
}

// newStackRun builds one execution's stack.  A nil scope builds the plain
// stack; a non-nil one wraps every layer entry point in a span.  sinks
// false builds the tracer-only rung: the app plus memtrace, nothing behind.
func newStackRun(sc *scope, sinks bool) (*stackRun, error) {
	app, err := apps.New(stackApp, stackScale)
	if err != nil {
		return nil, err
	}
	r := &stackRun{app: app}
	cfg := pipeline.Config{StackMode: memtrace.FastStack}
	if sinks {
		if r.dram, err = dramsim.New(dramsim.PaperConfig(dramsim.DDR3())); err != nil {
			return nil, err
		}
		if r.core, err = cpusim.New(cpusim.PaperConfig(10)); err != nil {
			return nil, err
		}
		var tx trace.TxSink = r.dram
		var perf trace.PerfSink = r.core
		if sc != nil {
			tx = trace.TxSinkFunc(func(b []trace.Transaction) error {
				sc.begin("dramsim.FlushTx")
				defer sc.end()
				return r.dram.FlushTx(b)
			})
			perf = trace.PerfSinkFunc(func(b []trace.PerfEvent) error {
				sc.begin("cpusim.FlushEvents")
				defer sc.end()
				return r.core.FlushEvents(b)
			})
		}
		if r.hier, err = cachesim.New(cachesim.PaperConfig(), tx); err != nil {
			return nil, err
		}
		var access trace.Sink = r.hier
		if sc != nil {
			access = trace.SinkFunc(func(b []trace.Access) error {
				r.batches++
				sc.begin("cachesim.Flush")
				defer sc.end()
				return r.hier.Flush(b)
			})
		}
		cfg.AccessTaps = []trace.Sink{access}
		cfg.Perf = perf
	}
	if r.st, err = pipeline.Build(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// run executes the app and finishes every layer: the hierarchy drains its
// dirty lines into the power model, the CPU model retires its tail and the
// power model prices the run.
func (r *stackRun) run(ctx context.Context, sc *scope) (stackStats, error) {
	var s stackStats
	sc.begin("apps.RunContext")
	err := apps.RunContext(ctx, r.app, r.st.Tracer, stackIters)
	sc.end()
	if err != nil {
		return s, err
	}
	if err := r.st.Close(); err != nil {
		return s, err
	}
	tr := r.st.Tracer
	s.refs = tr.Sampled + tr.SampledOut
	s.lookups, s.hits, s.scanned, _ = tr.RegistryStats()
	if r.hier == nil {
		return s, nil
	}
	sc.begin("cachesim.Drain")
	err = r.hier.Drain()
	sc.end()
	if err != nil {
		return s, err
	}
	sc.begin("cpusim.Finish")
	err = r.core.Finish()
	sc.end()
	if err != nil {
		return s, err
	}
	sc.begin("dramsim.Report")
	s.power = r.dram.Report()
	sc.end()
	s.l1, s.l2 = r.hier.L1Stats(), r.hier.L2Stats()
	s.tx = r.hier.MemReads + r.hier.MemWrites
	s.cpu = r.core.Stats()
	return s, nil
}

func runStack(ctx context.Context, b *bench) error {
	// Set-up assembles one stack (and drops it) to time construction;
	// every operation builds its own fresh stack.
	if err := b.setup(func() error {
		_, err := newStackRun(nil, true)
		return err
	}); err != nil {
		return err
	}

	var first, firstRung *stackStats
	same := func(want **stackStats, got stackStats, what string) error {
		if *want == nil {
			*want = &got
			return nil
		}
		if **want != got {
			return fmt.Errorf("%s simulated statistics differ from the first execution", what)
		}
		return nil
	}
	selfs := map[string][]float64{} // layer -> self seconds per traced op
	run := 0
	b.timed([]string{"plain", "traced", "tracer-only"}, func(variant string) (sample, bool) {
		run++
		var smp sample
		ok := b.op(stackApp+" "+variant, func() error {
			var sc *scope
			if variant == "traced" {
				sc = &scope{rec: b.rec, run: run}
			}
			sc.begin("stack.op")
			r, err := newStackRun(sc, variant != "tracer-only")
			if err != nil {
				return err
			}
			s, err := r.run(ctx, sc)
			if err != nil {
				return err
			}
			smp.refs = s.refs
			if variant == "tracer-only" {
				return same(&firstRung, s, "tracer-only rung")
			}
			if err := same(&first, s, "stack"); err != nil {
				return err
			}
			for name, v := range map[string]float64{
				"memtrace.refs":       float64(s.refs),
				"cachesim.tx":         float64(s.tx),
				"cpusim.cycles":       s.cpu.Cycles,
				"dramsim.activations": float64(s.power.Activates),
			} {
				if err := b.count(name, v); err != nil {
					return err
				}
			}
			sc.end()
			if variant == "traced" {
				for l, v := range b.stackLayers(run, r, s) {
					selfs[l] = append(selfs[l], float64(v)/1e9)
				}
			}
			return nil
		})
		return smp, ok
	})
	if rung := median(b.variantWall["tracer-only"]); b.traced && rung > 0 {
		// The tracer-only rung (the app plus memtrace, nothing behind it)
		// prices each layer, and the whole plain stack, as a factor over
		// the bare instrumented app; per reference it is the same ratio.
		for l, self := range selfs {
			b.layerValue(l+".factor", median(self)/rung)
		}
		b.layerValue("stack.factor", median(b.variantWall["plain"])/rung)
	}
	return nil
}

// stackLayers records one traced execution's per-layer metrics from its
// spans — each layer's self time as a share of the execution (the
// apps.RunContext span's self time is the app kernels plus memtrace, which
// cannot be split from outside), counts and hit ratios — and returns the
// self time per layer in nanoseconds.
func (b *bench) stackLayers(run int, r *stackRun, s stackStats) map[string]int64 {
	spans := b.rec.Run(run)
	self := selfByName(spans)
	layers := map[string]int64{
		"memtrace": self["apps.RunContext"],
		"cachesim": self["cachesim.Flush"] + self["cachesim.Drain"],
		"cpusim":   self["cpusim.FlushEvents"] + self["cpusim.Finish"],
		"dramsim":  self["dramsim.FlushTx"] + self["dramsim.Report"],
	}
	parts := map[string]int64{}
	for l, v := range layers {
		parts[l+".share"] = v
	}
	b.shares(totalByName(spans)["stack.op"], parts)
	b.layerValue("memtrace.refs", float64(s.refs))
	b.layerValue("memtrace.object_cache_hit_ratio", ratio(s.hits, s.lookups))
	b.layerValue("memtrace.scanned_per_lookup", ratio(s.scanned, s.lookups))
	b.layerValue("cachesim.batches", float64(r.batches))
	b.layerValue("cachesim.l1_hit_ratio", s.l1.HitRatio())
	b.layerValue("cachesim.l2_hit_ratio", s.l2.HitRatio())
	b.layerValue("cachesim.tx", float64(s.tx))
	b.layerValue("cpusim.events", float64(s.cpu.MemRefs))
	b.layerValue("cpusim.cycles", s.cpu.Cycles)
	b.layerValue("dramsim.activations", float64(s.power.Activates))
	b.layerValue("dramsim.row_hit_ratio", s.power.RowHitRatio())
	return layers
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
