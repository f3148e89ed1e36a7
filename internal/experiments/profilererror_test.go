package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"nvscavenger/internal/memtrace"
)

var testProfilerSpecs = []memtrace.SampleSpec{
	{Mode: memtrace.SampleBernoulli, Rate: 16, Seed: 1},
	{Mode: memtrace.SampleBernoulli, Rate: 64, Seed: 1},
	{Mode: memtrace.SamplePeriodic, Rate: 16},
	{Mode: memtrace.SampleBytes, Rate: 512, Seed: 1},
}

func TestProfilerErrorStudy(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(3))
	rows, err := s.ProfilerErrorStudy("gtc", testProfilerSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testProfilerSpecs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(testProfilerSpecs))
	}
	for i, r := range rows {
		if r.Spec != testProfilerSpecs[i] {
			t.Errorf("row %d: spec %v out of input order (want %v)", i, r.Spec, testProfilerSpecs[i])
		}
		if r.TrueRefs == 0 || r.TrueRefs != rows[0].TrueRefs {
			t.Errorf("%v: TrueRefs %d should be the shared perfect-run count %d",
				r.Spec, r.TrueRefs, rows[0].TrueRefs)
		}
		if r.ObservedRefs == 0 || r.ObservedRefs >= r.TrueRefs {
			t.Errorf("%v: observed %d refs of %d true — sampling did not reduce the stream",
				r.Spec, r.ObservedRefs, r.TrueRefs)
		}
		if r.TotalObjects == 0 {
			t.Errorf("%v: no active objects in the perfect run", r.Spec)
		}
		if r.LostObjects < 0 || r.LostObjects > r.TotalObjects {
			t.Errorf("%v: lost %d of %d objects", r.Spec, r.LostObjects, r.TotalObjects)
		}
		if r.MaxRefsErr < r.MeanRefsErr {
			t.Errorf("%v: max error %.3f below mean %.3f", r.Spec, r.MaxRefsErr, r.MeanRefsErr)
		}
	}
	// Bernoulli at rate 16 collects thousands of observations per object at
	// this scale, so the estimator's relative error stays small.  (The
	// periodic gate at the same rate does NOT get this bound: it phase-locks
	// with gtc's strided loops — the artifact this study makes visible.)
	if rows[0].MeanRefsErr > 0.25 {
		t.Errorf("%v: mean refs error %.1f%% too large for rate 16",
			rows[0].Spec, rows[0].MeanRefsErr*100)
	}
	if rows[0].StackRatioErr > 0.5 {
		t.Errorf("%v: stack-ratio error %.1f%% too large for rate 16",
			rows[0].Spec, rows[0].StackRatioErr*100)
	}
}

// TestProfilerErrorStudyDeterministicAcrossJobs: the exhibit's bytes must
// not depend on the worker-pool width — the seeded PRNG is per-tracer, runs
// are keyed per spec, and results are collected in input order.  This is
// the -jobs 1 vs -jobs N byte-identity contract the report generator
// promises, run race-enabled via `make race-sampling`.
func TestProfilerErrorStudyDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(jobs))
		rows, err := s.ProfilerErrorStudy("gtc", testProfilerSpecs)
		if err != nil {
			t.Fatal(err)
		}
		return FormatProfilerErrorStudy("gtc", rows)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("profiler error study differs between -jobs 1 and -jobs 8:\n--- jobs 1\n%s\n--- jobs 8\n%s",
			serial, parallel)
	}
}

// TestRelErrZeroTruthFallback: a truth of 0 must not silently score 0 —
// the estimate's own magnitude is the error (the StackRatioError bug this
// PR fixes, see SamplingStudy).
func TestRelErrZeroTruthFallback(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{0, 0, 0},
		{0.5, 0, 0.5},  // the old code reported 0 here
		{-0.5, 0, 0.5}, // absolute, not signed
		{3, 2, 0.5},
		{1, 2, 0.5},
		{2, 2, 0},
	}
	for _, c := range cases {
		if got := relErr(c.est, c.truth); got != c.want {
			t.Errorf("relErr(%g, %g) = %g, want %g", c.est, c.truth, got, c.want)
		}
	}
}

// tableAligned checks that every row of a fixed-width table is exactly as
// wide as its header, the property the FormatSamplingStudy "objects lost"
// cell violated (19 rendered chars under an 18-wide header, shearing every
// column after it one place to the right).
func tableAligned(t *testing.T, table string, header string, nRows int) {
	t.Helper()
	lines := strings.Split(table, "\n")
	h := -1
	for i, line := range lines {
		if strings.HasPrefix(line, header) {
			h = i
			break
		}
	}
	if h < 0 {
		t.Fatalf("header %q not found in:\n%s", header, table)
	}
	want := len(lines[h])
	for i := h + 1; i <= h+nRows; i++ {
		if len(lines[i]) != want {
			t.Errorf("row %q is %d chars wide, header is %d:\n%s",
				lines[i], len(lines[i]), want, table)
		}
	}
}

func TestFormatSamplingStudyAlignment(t *testing.T) {
	rows := []SamplingRow{
		{Period: 1, ObservedRefs: 123456789, LostObjects: 0, TotalObjects: 25},
		{Period: 256, ObservedRefs: 482253, LostObjects: 7, TotalObjects: 25, StackRatioError: 0.123, PlacementDiffs: 9},
	}
	tableAligned(t, FormatSamplingStudy("nek5000", rows), "  period", len(rows))
}

func TestFormatProfilerErrorStudyAlignment(t *testing.T) {
	rows := []ProfilerErrorRow{
		{Spec: memtrace.SampleSpec{Mode: memtrace.SampleBernoulli, Rate: 256, Seed: 42},
			ObservedRefs: 482253, TrueRefs: 123456789, TotalObjects: 25, LostObjects: 7,
			MeanRefsErr: 0.123, MaxRefsErr: 1, MeanWritesErr: 0.2, StackRatioErr: 0.01},
		{Spec: memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 64},
			ObservedRefs: 1929012, TrueRefs: 123456789, TotalObjects: 25},
	}
	tableAligned(t, FormatProfilerErrorStudy("nek5000", rows), "sample spec", len(rows))
}

// TestStudiesShareProfilerRuns: the sampling and profiler-error studies
// share one tracer-only run per normalised sampling spec, so the perfect
// profiler (= sampling period 1) and the every-64th-reference gate execute
// once for both, and no run is keyed under a separate sampling mode.
// Sharing must not change a row: each study's rows equal those of a fresh
// session that renders that study alone.
func TestStudiesShareProfilerRuns(t *testing.T) {
	exhibit := func(name string) func(*Session, io.Writer) error {
		for _, ex := range Exhibits() {
			if ex.Name == name {
				return ex.Gen
			}
		}
		t.Fatalf("no exhibit %q", name)
		return nil
	}
	newSession := func() *Session { return NewSession(WithScale(0.05), WithIterations(3)) }
	periods := []int{1, 16, 64, 256}

	shared := newSession()
	var out strings.Builder
	for _, name := range []string{"sampling", "profilererror"} {
		if err := exhibit(name)(shared, &out); err != nil {
			t.Fatal(err)
		}
	}
	runs := map[string]int{}
	for _, r := range shared.Metrics().Runs {
		runs[r.Key.Mode]++
	}
	if runs["profiler"] != 8 || runs["sampling"] != 0 || len(shared.Metrics().Runs) != 8 {
		t.Errorf("runs by mode = %v, want exactly 8 profiler runs", runs)
	}
	sampling, err := shared.SamplingStudy("nek5000", periods)
	if err != nil {
		t.Fatal(err)
	}
	profErr, err := shared.ProfilerErrorStudy("nek5000", DefaultProfilerErrorSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(shared.Metrics().Runs); n != 8 {
		t.Errorf("re-requesting both studies executed %d more runs", n-8)
	}

	aloneSampling, err := newSession().SamplingStudy("nek5000", periods)
	if err != nil {
		t.Fatal(err)
	}
	aloneProfErr, err := newSession().ProfilerErrorStudy("nek5000", DefaultProfilerErrorSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sampling, aloneSampling) {
		t.Errorf("shared sampling rows\n%+v\nwant\n%+v", sampling, aloneSampling)
	}
	if !reflect.DeepEqual(profErr, aloneProfErr) {
		t.Errorf("shared profiler-error rows\n%+v\nwant\n%+v", profErr, aloneProfErr)
	}
	want := FormatSamplingStudy("nek5000", aloneSampling) + "\n" + FormatProfilerErrorStudy("nek5000", aloneProfErr) + "\n"
	if out.String() != want {
		t.Errorf("rendered exhibits differ from the studies rendered alone:\n%s\nwant\n%s", out.String(), want)
	}
}
