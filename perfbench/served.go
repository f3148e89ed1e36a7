package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/runner"
	"nvscavenger/internal/served"
)

// The served workload drives an in-process nvserved over loopback HTTP.
// Each round opens a fresh manager (journal in a new state directory, so
// every round starts with a cold run cache) and two closed-loop clients
// work through the round's jobs: submit, stream the job's events until it
// is terminal, fetch the report.  A round has two phases.  The cold phase
// is one full report per (scale, iterations) pair: these jobs execute the
// instrumented runs, and their CPU time per executed reference is the
// workload's ns_per_ref.  The warm phase renders every distinct spec — a
// full report or an exhibit subset of either pair — servedWarmRepeats
// times from the shared run cache, in an order drawn from the seed; its
// jobs are the workload's ops, so latency, cpu_s and allocs_per_op measure
// HTTP, journaling and rendering from cache rather than the simulator runs
// the report and stack workloads already cover.  The mix is synthetic:
// every distinct spec weighs the same.  A manager keeps every finished
// job, so one manager for the whole run would grow its heap and journal
// with the number of jobs the host's speed allowed; a fixed round keeps
// peak_heap_mb and journal.bytes properties of the code.
var (
	servedPairs = []struct {
		scale float64
		iters int
	}{{0.05, 3}, {0.05, 2}}
	servedSubsets = [][]string{
		{"table1", "table5"},
		{"fig2", "fig7"},
		{"table6", "fig12"},
		{"placementcmp", "wear"},
		{"hybrid"},
		{"fig3", "fig8"},
	}
)

const servedWarmRepeats = 14

// jobOutcome is what a client saw for one job.
type jobOutcome struct {
	spec                experiments.JobSpec
	submit, wait, fetch time.Duration
	start               time.Time
	runs, hits, refs    uint64
	events              []runner.EventRecord
	err                 error
}

func specKey(s experiments.JobSpec) string {
	return fmt.Sprintf("%g/%d/%s", s.Scale, s.Iterations, strings.Join(s.Exhibits, ","))
}

// servedSpecs lists every distinct spec of the workload: for each pair,
// its full report (first) and each exhibit subset.
func servedSpecs() []experiments.JobSpec {
	var specs []experiments.JobSpec
	for _, p := range servedPairs {
		for _, subset := range append([][]string{nil}, servedSubsets...) {
			specs = append(specs, experiments.JobSpec{Scale: p.scale, Iterations: p.iters, Exhibits: subset})
		}
	}
	return specs
}

// servedCold is the cold phase: one full report per pair.
func servedCold() []experiments.JobSpec {
	var specs []experiments.JobSpec
	for _, p := range servedPairs {
		specs = append(specs, experiments.JobSpec{Scale: p.scale, Iterations: p.iters})
	}
	return specs
}

// servedWarm is one round's warm phase: every distinct spec
// servedWarmRepeats times, in a fresh seeded order.  Every round runs the
// same jobs, so its run and cache-hit counts repeat exactly.
func (b *bench) servedWarm() []experiments.JobSpec {
	distinct := servedSpecs()
	specs := make([]experiments.JobSpec, 0, len(distinct)*servedWarmRepeats)
	for _, i := range b.rng.Perm(cap(specs)) {
		specs = append(specs, distinct[i%len(distinct)])
	}
	return specs
}

// referenceReports renders every distinct spec of the workload in process
// (one shared run cache), timestamp stripped: what each served report
// must equal.
func referenceReports() (map[string]string, error) {
	cache := runner.NewCache()
	refs := map[string]string{}
	for _, spec := range servedSpecs() {
		opts, err := spec.SessionOptions()
		if err != nil {
			return nil, err
		}
		sess := experiments.NewSession(append(opts, experiments.WithJobs(1), experiments.WithRunCache(cache))...)
		var buf bytes.Buffer
		if err := sess.WriteReport(&buf, experiments.ReportConfig{Only: spec.Exhibits, Now: time.Now}); err != nil {
			return nil, err
		}
		refs[specKey(spec)] = stripTimestamp(buf.String())
	}
	return refs, nil
}

// daemon is one round's in-process nvserved.
type daemon struct {
	dir    string
	m      *served.Manager
	srv    *http.Server
	done   chan error
	base   string
	client *http.Client
}

func openDaemon(outDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(outDir, "served-state-")
	if err != nil {
		return nil, err
	}
	m, _, err := served.Open(served.Config{StateDir: dir, Workers: 2, Jobs: 1, Queue: 64})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, m.Drain(context.Background()), os.RemoveAll(dir))
	}
	d := &daemon{
		dir:  dir,
		m:    m,
		srv:  &http.Server{Handler: served.NewServer(m)},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2,
		}},
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains the manager (every terminal record and the clean-shutdown
// marker are then committed), reads the journal's commit count and size
// from /metrics, stops the server, waits for the serving goroutine and
// removes the state directory.
func (d *daemon) close() (commits, size float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = d.m.Drain(ctx)
	if err == nil {
		commits, size, err = d.journalStats()
	}
	d.client.CloseIdleConnections()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return commits, size, err
}

func (d *daemon) do(method, path string, body io.Reader, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// job runs one job through the API: submit, stream events to the end,
// fetch the report and compare it with the reference.
func (d *daemon) job(spec experiments.JobSpec, refs map[string]string) (o jobOutcome) {
	o.spec = spec
	o.start = time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	data, err := d.do("POST", "/jobs", bytes.NewReader(body), http.StatusAccepted)
	if err != nil {
		o.err = err
		return o
	}
	var res experiments.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		o.err = fmt.Errorf("decoding submit response: %w", err)
		return o
	}
	t1 := time.Now()
	o.submit = t1.Sub(o.start)

	data, err = d.do("GET", "/jobs/"+res.ID+"/events", nil, http.StatusOK)
	if err != nil {
		o.err = err
		return o
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev runner.EventRecord
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.err = fmt.Errorf("decoding event: %w", err)
			return o
		}
		switch ev.Kind {
		case "done":
			o.runs++
			o.refs += ev.Refs
			o.events = append(o.events, ev)
		case "cached":
			o.hits++
		case "error":
			o.err = fmt.Errorf("run %s failed: %s", ev.Key, ev.Error)
			return o
		}
	}
	t2 := time.Now()
	o.wait = t2.Sub(t1)

	report, err := d.do("GET", "/jobs/"+res.ID+"/report", nil, http.StatusOK)
	if err != nil {
		o.err = err
		return o
	}
	o.fetch = time.Since(t2)
	if err := sameReport(stripTimestamp(string(report)), refs[specKey(spec)]); err != nil {
		o.err = fmt.Errorf("served report for %s: %w", specKey(spec), err)
	}
	return o
}

// journalStats reads the journal's commit count and size from /metrics.
// Either series missing, or no commit at all, is an error: a renamed
// series would otherwise read 0 on every round and the exact-count check
// would pass without checking anything.
func (d *daemon) journalStats() (commits, size float64, err error) {
	data, err := d.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, 0, err
	}
	missing := map[string]*float64{"served_journal_commits_total": &commits, "served_journal_bytes": &size}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		if dst, ok := missing[f[1]]; ok {
			if *dst, err = strconv.ParseFloat(f[2], 64); err != nil {
				return 0, 0, fmt.Errorf("/metrics %s: %w", f[1], err)
			}
			delete(missing, f[1])
		}
	}
	for name := range missing {
		return 0, 0, fmt.Errorf("/metrics has no %s series", name)
	}
	if commits == 0 {
		return 0, 0, errors.New("the journal committed nothing")
	}
	return commits, size, nil
}

// jobs runs specs through the daemon on two closed-loop clients and
// returns each job's outcome, in spec order.
func (d *daemon) jobs(specs []experiments.JobSpec, refs map[string]string) []jobOutcome {
	outcomes := make([]jobOutcome, len(specs))
	next := make(chan int, len(specs)) // holds every index: no send blocks
	for i := range specs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = d.job(specs[i], refs)
			}
		}()
	}
	wg.Wait()
	return outcomes
}

func runServed(ctx context.Context, b *bench) error {
	refs, err := referenceReports()
	if err != nil {
		return err
	}
	if err := b.setup(func() error {
		d, err := openDaemon(b.outDir)
		if err != nil {
			return err
		}
		_, herr := d.do("GET", "/healthz", nil, http.StatusOK)
		if _, _, err := d.close(); herr == nil {
			herr = err
		}
		return herr
	}); err != nil {
		return err
	}
	var coldCPU, warmCPU, coldLat []float64
	run := 0
	b.timed([]string{"plain", "traced"}, func(variant string) (sample, bool) {
		run++
		var smp sample
		d, err := openDaemon(b.outDir)
		if err != nil {
			return smp, b.op("served round", func() error { return err })
		}
		cpu0 := cpuSeconds()
		cold := d.jobs(servedCold(), refs)
		runtime.GC() // the warm phase does not pay to collect the cold phase's garbage
		cpu1, allocs1, t1 := cpuSeconds(), heapAllocs(), time.Now()
		warm := d.jobs(b.servedWarm(), refs)
		smp.wall, smp.cpu, smp.allocs = time.Since(t1).Seconds(), cpuSeconds()-cpu1, heapAllocs()-allocs1
		smp.refCPU = cpu1 - cpu0
		commits, size, jerr := d.close()

		var roundErr error
		var tally runTally
		outcomes := append(cold, warm...)
		for i, o := range outcomes {
			if !b.op("served job "+specKey(o.spec), func() error { return o.err }) {
				roundErr = o.err
				continue
			}
			ms := float64((o.submit + o.wait + o.fetch).Microseconds()) / 1e3
			if i < len(cold) {
				coldLat = append(coldLat, ms)
			} else {
				smp.lat = append(smp.lat, ms)
			}
			smp.refs += o.refs
			tally.runs += o.runs
			tally.hits += o.hits
			tally.refs += o.refs
		}
		if !b.op("served round", func() error {
			if jerr != nil {
				return jerr
			}
			for name, v := range map[string]float64{
				"journal.commits": commits,
				"runner.runs":     float64(tally.runs),
				"runner.hits":     float64(tally.hits),
			} {
				if err := b.count(name, v); err != nil {
					return err
				}
			}
			return roundErr
		}) {
			return smp, false
		}
		if variant == "plain" {
			coldCPU = append(coldCPU, smp.refCPU)
			warmCPU = append(warmCPU, smp.cpu)
		}
		if variant == "traced" {
			b.servedLayers(run, outcomes, &tally)
			b.layerValue("served.cold_cpu_share", smp.refCPU/(smp.refCPU+smp.cpu))
			b.layerValue("served.cold_ms", median(coldLat[len(coldLat)-len(cold):]))
			b.layerValue("journal.commits", commits)
			b.layerValue("journal.bytes", size)
		}
		return smp, true
	})
	if c, w := median(coldCPU), median(warmCPU); c+w > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: served round CPU: cold phase %.4g s (%.1f%%), warm phase %.4g s (%.1f%%); cold job wall ms median %.4g\n",
			c, 100*c/(c+w), w, 100*w/(c+w), median(coldLat))
	}
	return nil
}

// servedLayers turns one traced round's job phases and streamed run events
// into spans — per job a root with submit, wait and fetch children, and
// each executed run as a child of the wait it happened in — and records
// the round's per-layer metrics: the median job as the traced operation,
// each phase's share of the summed job time, and run time per runner mode
// per second of summed job time.
func (b *bench) servedLayers(run int, outcomes []jobOutcome, tally *runTally) {
	for _, o := range outcomes {
		start := b.rec.At(o.start)
		t1, t2 := start+o.submit.Nanoseconds(), start+(o.submit+o.wait).Nanoseconds()
		end := t2 + o.fetch.Nanoseconds()
		root := b.rec.Add(Span{Name: "served.job", Run: run, Start: start, End: end})
		b.rec.Add(Span{Name: "served.submit", Run: run, Parent: root, Start: start, End: t1})
		wait := b.rec.Add(Span{Name: "served.wait", Run: run, Parent: root, Start: t1, End: t2})
		b.rec.Add(Span{Name: "served.fetch", Run: run, Parent: root, Start: t2, End: end})
		for _, ev := range o.events {
			end := b.rec.At(ev.Time)
			mode := strings.Split(ev.Key, "/")[1]
			b.rec.Add(Span{
				Name: runnerSpanName(strings.Split(mode, "@")[0]), Run: run, Parent: wait,
				Start: end - int64(ev.WallSeconds*1e9), End: end,
			})
		}
	}
	spans := b.rec.Run(run)
	total := totalByName(spans)
	var jobs []float64
	for _, s := range spans {
		if s.Name == "served.job" {
			jobs = append(jobs, float64(s.Dur()))
		}
	}
	parts := runnerParts(total)
	for _, phase := range []string{"submit", "wait", "fetch"} {
		parts["served."+phase+"_share"] = total["served."+phase]
	}
	sum := total["served.job"]
	b.layerValue("trace.op_s", median(jobs)/1e9)
	for name, v := range parts {
		b.layerValue(name, float64(v)/float64(sum))
	}
	b.runnerCounts(tally)
}
