// Command nvperf is the performance-sensitivity simulator front end
// (paper §V / Figure 12).
//
// It executes a mini-application once, classifies its reference stream
// through the Table II cache hierarchy once, and times it on the
// trace-driven out-of-order core model at every memory latency (Table IV;
// only the main-memory access latency varies), reporting the normalized
// runtimes.  Tracer and pipeline metrics are recorded once under the app
// label; the cpusim series carry a latency_ns label per sweep point.
//
// Usage:
//
//	nvperf -app nek5000 [-scale 1.0] [-iterations 1] [-latencies 10,12,20,100]
package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cli"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

func main() { cli.Main("nvperf", run) }

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvperf")
	appName := fs.String("app", "", "application to simulate: "+cli.AppList())
	scale := fs.Float64("scale", 1.0, "problem scale")
	iters := fs.Int("iterations", 1, "main-loop iterations to simulate (the paper uses 1)")
	latList := fs.String("latencies", "10,12,20,100", "memory latencies in ns (comma separated; first is the baseline)")
	metricsOut := fs.String("metrics", "", "write the sweep's observability snapshot to this file (.json for JSON, text otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.RequireApp(fs, *appName); err != nil {
		return err
	}
	var lats []float64
	for _, s := range strings.Split(*latList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad latency %q: %w", s, err)
		}
		lats = append(lats, v)
	}
	if len(lats) == 0 {
		return fmt.Errorf("no latencies given")
	}

	reg := obs.NewRegistry()
	app, err := apps.New(*appName, *scale)
	if err != nil {
		return err
	}
	labels := make([]string, len(lats))
	for i, lat := range lats {
		labels[i] = strconv.FormatFloat(lat, 'g', -1, 64)
	}
	appLabel := obs.L("app", *appName)
	// The sweep is a batched trace.PerfSink: the tracer stages events and
	// flushes references plus instruction gaps in one call per batch, and
	// the sweep times each batch at every latency.
	res, err := cpusim.Sweep(labels, lats, func(sink trace.PerfSink) error {
		stack, err := pipeline.Build(pipeline.Config{Perf: sink, Metrics: reg, Labels: []obs.Label{appLabel}})
		if err != nil {
			return err
		}
		if err := apps.Run(app, stack.Tracer, *iters); err != nil {
			return err
		}
		if err := stack.Close(); err != nil {
			return err
		}
		stack.Tracer.ExportMetrics(reg, appLabel)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s latency sweep (%d iteration(s), scale %.2f)\n", *appName, *iters, *scale)
	fmt.Fprintf(out, "%12s %14s %10s %8s %14s %14s\n",
		"latency (ns)", "cycles", "normalized", "IPC", "mem accesses", "prefetch hits")
	for _, r := range res {
		st := r.Stats
		ls := []obs.Label{appLabel, obs.L("latency_ns", r.Device)}
		reg.Gauge("cpusim_cycles", ls...).Set(st.Cycles)
		reg.Gauge("cpusim_normalized_runtime", ls...).Set(r.Normalized)
		reg.Gauge("cpusim_ipc", ls...).Set(st.IPC)
		reg.Gauge("cpusim_mem_accesses", ls...).Set(float64(st.MemAccesses))
		reg.Gauge("cpusim_prefetch_hits", ls...).Set(float64(st.PrefetchHits))
		fmt.Fprintf(out, "%12.0f %14.0f %10.3f %8.2f %14d %14d\n",
			r.MemLatencyNS, st.Cycles, r.Normalized, st.IPC, st.MemAccesses, st.PrefetchHits)
	}
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	return nil
}
