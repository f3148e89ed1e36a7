package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/pipeline"
)

func TestRunSweep(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "1",
		"-latencies", "10,100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "latency sweep") || !strings.Contains(text, "normalized") {
		t.Errorf("output incomplete:\n%s", text)
	}
	if strings.Count(text, "\n") < 4 {
		t.Error("expected two sweep rows")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -app must error")
	}
	if err := run([]string{"-app", "gtc", "-latencies", "ten"}, &out); err == nil {
		t.Error("bad latency must error")
	}
	if err := run([]string{"-app", "nonesuch"}, &out); err == nil {
		t.Error("unknown app must error")
	}
	for _, lats := range []string{"10,NaN,+Inf", "10,-Inf", "0", "-5"} {
		if err := run([]string{"-app", "gtc", "-scale", "0.05", "-latencies", lats}, &out); err == nil {
			t.Errorf("-latencies %s must error", lats)
		}
	}
}

// TestSweepMatchesPerLatencyRuns: nvperf executes the app once and times
// the stream at every latency; its table must be byte-identical to one
// built from a separate execution per latency, each driving its own Core.
func TestSweepMatchesPerLatencyRuns(t *testing.T) {
	lats := []float64{10, 12, 20, 100}
	var want bytes.Buffer
	fmt.Fprintf(&want, "%s latency sweep (%d iteration(s), scale %.2f)\n", "gtc", 2, 0.05)
	fmt.Fprintf(&want, "%12s %14s %10s %8s %14s %14s\n",
		"latency (ns)", "cycles", "normalized", "IPC", "mem accesses", "prefetch hits")
	var base float64
	for _, lat := range lats {
		app, err := apps.New("gtc", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		c := cpusim.MustNew(cpusim.PaperConfig(lat))
		stack, err := pipeline.Build(pipeline.Config{Perf: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.Run(app, stack.Tracer, 2); err != nil {
			t.Fatal(err)
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if base == 0 {
			base = st.Cycles
		}
		fmt.Fprintf(&want, "%12.0f %14.0f %10.3f %8.2f %14d %14d\n",
			lat, st.Cycles, st.Cycles/base, st.IPC, st.MemAccesses, st.PrefetchHits)
	}
	var got bytes.Buffer
	if err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "2",
		"-latencies", "10,12,20,100"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("one-pass sweep differs from per-latency runs:\n--- got\n%s--- want\n%s", got.String(), want.String())
	}
}
