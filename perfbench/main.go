// Command perfbench is the repository's layered benchmark.  It measures
// four workloads end to end with tracing off, and in a separate traced run
// times every call the benchmark makes into a layer's public API to give
// per-layer self times, counts and ratios.
//
//	perfbench --workload report|stack|replay|served --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: whether every output
// check passed, how many operations were attempted and failed, and the
// metrics (the end-to-end set with --trace 0, the per-layer set with
// --trace 1).  Progress, sample counts and exact counts go to standard
// error.  METRICS.md maps each per-layer metric to the end-to-end metric it
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDefs reads the metrics to print, names and units, from the
// end_to_end (untraced runs) or per_layer (traced runs) list of
// BENCHMARK.json at the repository root, the one place they are defined.
// Every workload prints every metric of its list; a per-layer metric of a
// layer the workload does not exercise reads 0.
func metricDefs(traced bool) ([]metricDef, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

type metricDef struct{ Name, Unit string }

// workload runs one benchmark workload against b.
type workload func(ctx context.Context, b *bench) error

var workloads = map[string]workload{
	"report": runReport,
	"stack":  runStack,
	"replay": runReplay,
	"served": runServed,
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 3

// sample is one measured unit of a timed loop: the operations it covered
// (one, or a served round's warm jobs) with their latencies, their wall
// and CPU time and heap allocations, and the simulator input events
// (references or transactions) processed with refCPU seconds of CPU time.
// Times are process CPU time, not wall-clock, wherever a bound gates them:
// on a virtual machine the host steals CPU time from the guest in bursts (a
// fifth of it at times on the reference box), which moves wall-clock
// medians between runs by more than any usable bound.
type sample struct {
	lat    []float64 // ms per operation
	wall   float64   // s
	cpu    float64   // s
	allocs uint64    // heap objects allocated
	refs   uint64
	refCPU float64 // s; the same as cpu unless the step set it
}

// bench carries one invocation's configuration and accumulates its
// results.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	defs     []metricDef

	rng *rand.Rand
	rec *Recorder // traced runs only

	attempted, failed int

	setups  []float64
	samples []sample
	heapMB  float64

	// variant -> wall seconds of each of its samples
	variantWall map[string][]float64
	// per-layer metric -> one value per traced sample
	layer map[string][]float64
	// exact counts that must repeat across every operation of the run
	counts map[string]float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: report, stack, replay or served")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the timed part, in seconds")
		traced  = flag.Int("trace", 0, "1 for the traced per-layer run")
		outDir  = flag.String("out", ".bench_build", "directory for span files and scratch state")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	defs, err := metricDefs(*traced == 1)
	if err != nil {
		fatal(err)
	}
	b := &bench{
		workload:    *name,
		seed:        *seed,
		seconds:     *seconds,
		traced:      *traced == 1,
		outDir:      *outDir,
		defs:        defs,
		rng:         rand.New(rand.NewSource(*seed)),
		variantWall: map[string][]float64{},
		layer:       map[string][]float64{},
		counts:      map[string]float64{},
	}
	if b.traced {
		b.rec = NewRecorder()
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fatal(err)
	}
	if err := wl(context.Background(), b); err != nil {
		fatal(err)
	}
	if b.traced {
		path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.rec.WriteFile(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	out, err := json.Marshal(b.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// op runs one operation, counts it and reports whether it succeeded; an
// error (a failed call or a failed output check) counts as a failed
// operation and is printed.
func (b *bench) op(what string, fn func() error) bool {
	b.attempted++
	if err := fn(); err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// count records an exact, machine-independent count and fails when it
// differs from the value first recorded under the same name.
func (b *bench) count(name string, v float64) error {
	if prev, ok := b.counts[name]; ok && prev != v {
		return fmt.Errorf("exact count %s changed between repeats: %v then %v", name, prev, v)
	}
	b.counts[name] = v
	return nil
}

// setup runs the golden check and then fn, setupRepeats times, and records
// the CPU time of each.  A golden mismatch is a failed operation
// but the run goes on, so the result reports it; a failed fn leaves
// nothing to measure.
func (b *bench) setup(fn func() error) error {
	for i := 0; i < setupRepeats; i++ {
		cpu0 := cpuSeconds()
		b.op("golden report", checkGolden)
		if !b.op("setup", fn) {
			return fmt.Errorf("%s set-up failed", b.workload)
		}
		b.setups = append(b.setups, cpuSeconds()-cpu0)
	}
	return nil
}

// timed runs step until the benchmark's seconds are spent.  Untraced runs
// cycle through the single variant "plain"; traced runs cycle through
// variants (the traced one, the untraced baseline it is compared with and
// any extra rungs), each at least once.  A step's wall and CPU time and
// allocations are measured here, unless its operations are only part of
// it and it measured them itself (a served round's warm jobs) and set
// wall.  A step covering one operation leaves its latency to be the
// step's wall time, a step covering several fills in each.  A failed step
// ends the loop: its failure is already counted, and a failing workload is
// not measured further.
func (b *bench) timed(variants []string, step func(variant string) (sample, bool)) {
	if !b.traced {
		variants = []string{"plain"}
	}
	runtime.GC() // so the heap peak starts from what set-up left live, not its last cycle
	stop := sampleHeap()
	start := time.Now()
	for i := 0; i < len(variants) || time.Since(start).Seconds() < b.seconds; i++ {
		v := variants[i%len(variants)]
		cpu0, allocs0, t0 := cpuSeconds(), heapAllocs(), time.Now()
		s, ok := step(v)
		if !ok {
			break
		}
		if s.wall == 0 {
			s.wall, s.cpu, s.allocs = time.Since(t0).Seconds(), cpuSeconds()-cpu0, heapAllocs()-allocs0
		}
		if s.refCPU == 0 {
			s.refCPU = s.cpu
		}
		if s.lat == nil {
			s.lat = []float64{s.wall * 1e3}
		}
		if v == "plain" {
			b.samples = append(b.samples, s)
		}
		b.variantWall[v] = append(b.variantWall[v], s.wall)
	}
	b.heapMB = stop()
}

// layerValue records one traced sample's value of a per-layer metric.
func (b *bench) layerValue(name string, v float64) { b.layer[name] = append(b.layer[name], v) }

// shares records one traced operation's length and, under each share
// metric's name, its part's share of it; all times are nanoseconds.
func (b *bench) shares(op int64, parts map[string]int64) {
	b.layerValue("trace.op_s", float64(op)/1e9)
	for name, v := range parts {
		b.layerValue(name, float64(v)/float64(op))
	}
}

// sampleHeap polls the Go heap still live at the end of the latest
// garbage collection every few milliseconds until the returned function is
// called; that function returns the peak in MB.  Live bytes, unlike heap
// bytes in use, do not count garbage awaiting collection, so the peak does
// not swing with where in its cycle the collector happened to be.
func sampleHeap() func() float64 {
	const key = "/gc/heap/live:bytes"
	s := []metrics.Sample{{Name: key}}
	var peak float64
	read := func() {
		metrics.Read(s)
		peak = max(peak, float64(s[0].Value.Uint64())/(1<<20))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return peak
	}
}

// heapAllocs is the number of heap objects allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON object and prints the human-readable
// summary (sample counts, percentile used, exact counts) to stderr.  The
// end-to-end and wall-clock figures come from the plain (untraced) ops in
// both modes.  None of the wall-clock figures is gated: on the reference
// box they spread between runs of identical code by more than a usable
// bound (see METRICS.md).  e2e.cpu_per_wall, CPU seconds per wall second
// of the ops, falls when work waits off the CPU: runner fan-out serialised
// onto one worker, journal fsyncs, lock waits.
func (b *bench) result() result {
	vals := map[string]float64{}
	for name, xs := range b.layer {
		vals[name] = median(xs)
	}
	if base := median(b.variantWall["plain"]); base > 0 && b.traced {
		vals["trace_overhead"] = median(b.variantWall["traced"])/base - 1
	}
	var lat, perSec, cpu, allocs, nsRef, util []float64
	for _, s := range b.samples {
		ops := float64(len(s.lat))
		lat = append(lat, s.lat...)
		perSec = append(perSec, ops/s.wall)
		util = append(util, s.cpu/s.wall)
		cpu = append(cpu, s.cpu/ops)
		allocs = append(allocs, float64(s.allocs)/ops)
		if s.refs > 0 {
			nsRef = append(nsRef, s.refCPU*1e9/float64(s.refs))
		}
	}
	p95, used := tail(lat, 95)
	vals["setup_s"] = median(b.setups)
	vals["cpu_s"] = median(cpu)
	vals["ns_per_ref"] = median(nsRef)
	vals["peak_heap_mb"] = b.heapMB
	vals["allocs_per_op"] = median(allocs)
	vals["e2e.cpu_per_wall"] = median(util)
	vals["e2e.wall_p50_ms"] = median(lat)
	vals["e2e.wall_p95_ms"] = p95
	vals["e2e.wall_ops_per_s"] = median(perSec)
	if b.attempted > 0 {
		vals["success_rate"] = 1 - float64(b.failed)/float64(b.attempted)
	}
	if len(lat) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d plain samples, %d ops; wall ms min %.4g median %.4g p%.1f %.4g max %.4g; CPU s per op %.4g\n",
			b.workload, len(b.samples), len(lat), slices.Min(lat), median(lat), used, p95, slices.Max(lat), vals["cpu_s"])
	}
	counts := make([]string, 0, len(b.counts))
	for k := range b.counts {
		counts = append(counts, k)
	}
	sort.Strings(counts)
	for _, k := range counts {
		fmt.Fprintf(os.Stderr, "perfbench: exact %s = %.17g\n", k, b.counts[k])
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range b.defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}
