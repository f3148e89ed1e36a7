package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/obs"
)

func TestRunSubset(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "0.05", "-iterations", "3", "-only", "table1,table5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "Table V") {
		t.Errorf("subset output incomplete:\n%s", text)
	}
	if strings.Contains(text, "Table VI") {
		t.Error("unselected exhibit was generated")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-iterations", "3", "-only", "fig7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 7") {
		t.Error("figure 7 missing")
	}
}

// TestReportMatchesGolden pins the full report byte-for-byte against the
// checked-in output captured before the pipeline layer was introduced: the
// refactor must not move a single exhibit byte.  Only the timestamp line is
// stripped.  Regenerate with:
//
//	go run ./cmd/nvreport -scale 0.05 -iterations 3 -jobs 1 -progress=false
func TestReportMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-iterations", "3", "-jobs", "1", "-progress=false"}, &out); err != nil {
		t.Fatal(err)
	}
	stripped := stripTimestamp(out.String())
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stripped != string(golden) {
		t.Fatalf("report diverged from testdata/golden_report.txt (%d vs %d bytes)", len(stripped), len(golden))
	}
}

func stripTimestamp(text string) string {
	lines := strings.Split(text, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "generated ") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestChaosReportDeterministicAcrossJobs: a seeded -fault sweep must emit a
// byte-identical degraded report whether the runs execute sequentially or
// on a worker pool — the injector decides per run key, not per schedule.
func TestChaosReportDeterministicAcrossJobs(t *testing.T) {
	report := func(jobs string) string {
		var out bytes.Buffer
		if err := run([]string{"-scale", "0.05", "-iterations", "3", "-progress=false",
			"-only", "table1,table5,table6", "-jobs", jobs,
			"-fault", "worker:prob=0.5,seed=9"}, &out); err != nil {
			t.Fatalf("jobs=%s chaos run: %v", jobs, err)
		}
		return stripTimestamp(out.String())
	}
	seq := report("1")
	par := report("4")
	if seq != par {
		t.Fatalf("degraded report differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Degraded runs:") {
		t.Fatalf("chaos report missing the degradation section:\n%s", seq)
	}
	if !strings.Contains(seq, "worker crash") {
		t.Fatalf("chaos report missing per-run annotations:\n%s", seq)
	}
}

// TestFaultFlagRejectsBadSpec: a malformed -fault spec must fail fast
// before any run is scheduled.
func TestFaultFlagRejectsBadSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "table1", "-fault", "sink:bogus=1"}, &out); err == nil {
		t.Error("malformed -fault spec must error")
	}
}

func TestScaleFlagRejectsOutOfRange(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "0", "-1"} {
		t.Run(scale, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-scale", scale, "-only", "table1", "-progress=false"}, &out)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Fatalf("err = %v, want an error naming -scale", err)
			}
			if out.Len() != 0 {
				t.Errorf("rejected run wrote a report:\n%s", out.String())
			}
		})
	}
}

func TestRunUnknownExhibit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "fig99"}, &out); err == nil {
		t.Error("unknown exhibit must error")
	}
}

func TestExhibitNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, ex := range experiments.Exhibits() {
		if seen[ex.Name] {
			t.Errorf("duplicate exhibit %q", ex.Name)
		}
		seen[ex.Name] = true
	}
	if len(seen) != 22 {
		t.Errorf("exhibit count = %d, want 22", len(seen))
	}
}

// TestRunMetricsFile covers the acceptance path: `nvreport -metrics` must
// emit a snapshot containing runner run/hit/miss/error counters, cachesim
// L1/L2 hit ratios and dramsim command counts for at least one exhibit.
func TestRunMetricsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-iterations", "3", "-progress=false",
		"-only", "table5,table6", "-metrics", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"runner_runs_total",
		"runner_hits_total",
		"runner_misses_total",
		"runner_errors_total",
		`cachesim_hit_ratio{app=cam,level=L1D,mode=fast}`,
		`cachesim_hit_ratio{app=cam,level=L2,mode=fast}`,
		`dramsim_reads{app=cam,device=DDR3}`,
		`dramsim_writes{app=cam,device=DDR3}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics file missing %q:\n%s", want, text)
		}
	}
}

func TestRunMetricsJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-iterations", "3", "-progress=false",
		"-only", "table5", "-metrics", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if _, ok := snap.Counter("runner_runs_total"); !ok {
		t.Error("JSON snapshot missing runner_runs_total")
	}
}

func TestRunOutdir(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-iterations", "3",
		"-only", "table1,table5", "-outdir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.txt", "table5.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "table6.txt")); err == nil {
		t.Fatal("unselected exhibit file must not exist")
	}
}

// TestProfileFlagsKeepStdout: -cpuprofile and -memprofile write non-empty
// pprof files and leave the report bytes untouched.
func TestProfileFlagsKeepStdout(t *testing.T) {
	args := []string{"-scale", "0.05", "-iterations", "3", "-jobs", "1", "-progress=false", "-only", "table1,table5"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run(append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...), &profiled); err != nil {
		t.Fatal(err)
	}
	if stripTimestamp(profiled.String()) != stripTimestamp(plain.String()) {
		t.Fatal("profiling changed the report bytes")
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", path, err)
		}
	}
}
