package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/runner"
)

// The report workload renders the full 22-exhibit report from a fresh
// session (two workers, cold run cache) per operation — the product users
// run, and the only workload where re-executed runs show.
const (
	reportScale = 0.1
	reportIters = 10
)

// runTally counts one session's engine runs from its progress events.
type runTally struct {
	mu               sync.Mutex // progress events arrive on worker goroutines
	runs, hits, refs uint64
}

// observe is the session's progress callback.  The caller reads the tally
// after WriteReport returns, which waits for every run.
func (t *runTally) observe(b *bench, run int) func(runner.Event) {
	return func(ev runner.Event) {
		t.mu.Lock()
		defer t.mu.Unlock()
		switch ev.Kind {
		case runner.EventDone:
			t.runs++
			t.refs += ev.Refs
			if b.rec != nil {
				end := b.rec.At(ev.Time)
				b.rec.Add(Span{
					Name: runnerSpanName(ev.Key.Mode), Run: run,
					Start: end - ev.Wall.Nanoseconds(), End: end,
				})
			}
		case runner.EventCached:
			t.hits++
		}
	}
}

// runnerSpanName maps a runner mode ("perf-sweep") to its span name.
func runnerSpanName(mode string) string {
	return "runner." + strings.ReplaceAll(mode, "-", "_")
}

// runnerModes are the run modes a report executes, in metric order.
var runnerModes = []string{"fast", "slow", "power", "perf_sweep", "sampling", "profiler"}

func runReport(ctx context.Context, b *bench) error {
	if err := b.setup(func() error { return nil }); err != nil {
		return err
	}
	var firstReport string
	run := 0
	b.timed([]string{"plain", "traced"}, func(variant string) (sample, bool) {
		run++
		var smp sample
		ok := b.op("report "+variant, func() error {
			var tally runTally
			sess := experiments.NewSession(
				experiments.WithContext(ctx),
				experiments.WithScale(reportScale),
				experiments.WithIterations(reportIters),
				experiments.WithJobs(2),
				experiments.WithProgress(tally.observe(b, run)),
			)
			var buf bytes.Buffer
			var err error
			if variant == "traced" {
				err = b.tracedReport(run, sess, &buf, &tally)
			} else {
				err = sess.WriteReport(&buf, experiments.ReportConfig{})
			}
			if err != nil {
				return err
			}
			smp.refs = tally.refs
			if firstReport == "" {
				firstReport = buf.String()
			} else if err := sameReport(buf.String(), firstReport); err != nil {
				return fmt.Errorf("report not byte-identical to the first of this run: %w", err)
			}
			for name, v := range map[string]uint64{
				"runner.runs": tally.runs, "runner.hits": tally.hits, "runner.refs": tally.refs,
			} {
				if err := b.count(name, float64(v)); err != nil {
					return err
				}
			}
			return nil
		})
		return smp, ok
	})
	return nil
}

// tracedReport renders the report through the same WriteReport call as the
// plain variant, with a per-exhibit tee whose open and close bracket each
// exhibit generator: the warm-up span runs from the call to the first
// exhibit, and each run the engine executed is matched to the exhibit (or
// the warm-up) whose span contains its start.
func (b *bench) tracedReport(run int, sess *experiments.Session, w io.Writer, tally *runTally) error {
	root := b.rec.Begin("experiments.WriteReport", run, 0)
	warm := b.rec.Begin("experiments.Warm", run, root)
	warmOpen := true
	err := sess.WriteReport(w, experiments.ReportConfig{
		Tee: func(name string) (io.WriteCloser, error) {
			if warmOpen {
				b.rec.End(warm)
				warmOpen = false
			}
			return spanCloser{b.rec, b.rec.Begin("experiments.Gen/"+name, run, root)}, nil
		},
	})
	b.rec.End(root)
	if err != nil {
		return err
	}
	spans := b.rec.Run(run)
	var parents []Span
	for _, s := range spans {
		if s.Name == "experiments.Warm" || strings.HasPrefix(s.Name, "experiments.Gen/") {
			parents = append(parents, s)
		}
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "runner.") {
			continue
		}
		parent := root
		for _, p := range parents {
			if s.Start >= p.Start && s.Start < p.End {
				parent = p.ID
			}
		}
		b.rec.SetParent(s.ID, parent)
	}
	spans = b.rec.Run(run)
	total := totalByName(spans)
	var render int64
	for name, v := range selfByName(spans) {
		if strings.HasPrefix(name, "experiments.Gen/") {
			render += v
		}
	}
	parts := runnerParts(total)
	parts["experiments.warm_share"] = total["experiments.Warm"]
	parts["experiments.render_share"] = render
	b.shares(total["experiments.WriteReport"], parts)
	b.runnerCounts(tally)
	return nil
}

// runnerParts sums run time per runner mode.  Runs overlap on two
// workers, so a mode's share of an operation can exceed 1: it is
// run-seconds per second of the operation.
func runnerParts(total map[string]int64) map[string]int64 {
	parts := map[string]int64{}
	for _, m := range runnerModes {
		parts["runner."+m+"_share"] = total["runner."+m]
	}
	return parts
}

// runnerCounts records the run counts of one traced report or served
// round.
func (b *bench) runnerCounts(tally *runTally) {
	b.layerValue("runner.runs", float64(tally.runs))
	b.layerValue("runner.hits", float64(tally.hits))
	b.layerValue("runner.refs", float64(tally.refs))
	b.layerValue("runner.hit_ratio", ratio(tally.hits, tally.hits+tally.runs))
}

// spanCloser is a discarding writer whose Close ends a span.
type spanCloser struct {
	rec *Recorder
	id  int
}

func (s spanCloser) Write(p []byte) (int, error) { return len(p), nil }
func (s spanCloser) Close() error                { s.rec.End(s.id); return nil }
