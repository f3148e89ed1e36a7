package experiments

import (
	"strings"
	"sync"
	"testing"
)

// The test session is shared: exhibits reuse the memoized app runs exactly
// as cmd/nvreport does.
var (
	sessOnce sync.Once
	sess     *Session
)

func testSession() *Session {
	sessOnce.Do(func() {
		sess = NewSession(WithScale(0.25), WithIterations(10))
	})
	return sess
}

func TestOptionsDefaults(t *testing.T) {
	s := NewSession()
	if s.cfg.scale != 1.0 || s.cfg.iterations != 10 {
		t.Fatalf("defaults = scale %g, %d iterations", s.cfg.scale, s.cfg.iterations)
	}
	// Non-positive values keep the defaults.
	s = NewSession(WithScale(0), WithIterations(-1))
	if s.cfg.scale != 1.0 || s.cfg.iterations != 10 {
		t.Fatalf("non-positive options = scale %g, %d iterations", s.cfg.scale, s.cfg.iterations)
	}
}

func TestSessionMemoizes(t *testing.T) {
	s := testSession()
	r1, err := s.Fast("gtc")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Fast("gtc")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("fast runs must be memoized")
	}
}

func TestUnknownAppRejected(t *testing.T) {
	s := testSession()
	if _, err := s.Fast("nonesuch"); err == nil {
		t.Fatal("unknown app must error")
	}
	if _, err := s.Slow("nonesuch"); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestTable1FootprintOrdering(t *testing.T) {
	rows, err := testSession().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	fp := map[string]float64{}
	for _, r := range rows {
		if r.FootprintMB <= 0 {
			t.Fatalf("%s footprint = %v", r.App, r.FootprintMB)
		}
		fp[r.App] = r.FootprintMB
	}
	// Table I ordering: Nek5000 (824 MB) > CAM (608) > S3D (512) > GTC (218).
	if !(fp["nek5000"] > fp["cam"] && fp["cam"] > fp["s3d"] && fp["s3d"] > fp["gtc"]) {
		t.Errorf("footprint ordering violated: %+v", fp)
	}
	txt := FormatTable1(rows)
	if !strings.Contains(txt, "nek5000") || !strings.Contains(txt, "MB") {
		t.Error("Table I formatting incomplete")
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := testSession().Table5()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ ratioLo, ratioHi, pctLo, pctHi float64 }{
		"nek5000": {5.3, 7.4, 70, 81},
		"cam":     {17, 24, 70, 82},
		"gtc":     {2.9, 4.1, 38, 50},
		"s3d":     {5.1, 7.0, 56, 70},
	}
	for _, r := range rows {
		w := want[r.App]
		if r.SteadyRatio < w.ratioLo || r.SteadyRatio > w.ratioHi {
			t.Errorf("%s steady ratio = %.2f, want [%v,%v]", r.App, r.SteadyRatio, w.ratioLo, w.ratioHi)
		}
		if r.ReferencePct < w.pctLo || r.ReferencePct > w.pctHi {
			t.Errorf("%s stack pct = %.1f, want [%v,%v]", r.App, r.ReferencePct, w.pctLo, w.pctHi)
		}
	}
	// Ordering from the paper: CAM > Nek > S3D > GTC in stack share.
	pct := map[string]float64{}
	for _, r := range rows {
		pct[r.App] = r.ReferencePct
	}
	if !(pct["cam"] > pct["gtc"] && pct["nek5000"] > pct["s3d"] && pct["s3d"] > pct["gtc"]) {
		t.Errorf("stack share ordering violated: %+v", pct)
	}
	txt := FormatTable5(rows)
	if !strings.Contains(txt, "Reference percentage") {
		t.Error("Table V formatting incomplete")
	}
	// CAM's row shows the first-iteration ratio in parentheses.
	if !strings.Contains(txt, "(") {
		t.Error("CAM first-iteration ratio missing from Table V")
	}
}

func TestFigure2Shape(t *testing.T) {
	recs, fig, err := testSession().Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 31 {
		t.Fatalf("frame records = %d, want >= 31", len(recs))
	}
	if fig.CountOver10 < 0.35 || fig.CountOver10 > 0.50 {
		t.Errorf("count over 10 = %.3f, want ~0.433", fig.CountOver10)
	}
	if fig.RefsOver10 < 0.60 || fig.RefsOver10 > 0.78 {
		t.Errorf("refs over 10 = %.3f, want ~0.689", fig.RefsOver10)
	}
	if fig.CountOver50 < 0.02 || fig.CountOver50 > 0.07 {
		t.Errorf("count over 50 = %.3f, want ~0.032", fig.CountOver50)
	}
	if fig.RefsOver50 < 0.05 || fig.RefsOver50 > 0.13 {
		t.Errorf("refs over 50 = %.3f, want ~0.089", fig.RefsOver50)
	}
	txt := FormatFigure2(recs, fig)
	if !strings.Contains(txt, "vertinterp") {
		t.Error("Figure 2 formatting incomplete")
	}
}

func TestObjectFiguresReadOnlyPopulations(t *testing.T) {
	s := testSession()
	for _, name := range AppNames {
		recs, err := s.ObjectFigure(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 5 {
			t.Errorf("%s has only %d objects", name, len(recs))
		}
		ro := 0
		for _, r := range recs {
			if r.ReadOnly {
				ro++
			}
		}
		if ro == 0 {
			t.Errorf("%s: read-only data structures are common in all four applications (§VII-B)", name)
		}
	}
	recs, _ := s.ObjectFigure("nek5000")
	txt := FormatObjectFigure("nek5000", 3, recs)
	if !strings.Contains(txt, "read-only data") {
		t.Error("object figure formatting incomplete")
	}
}

func TestFigure7Shapes(t *testing.T) {
	cdfs, err := testSession().Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nek5000", "cam", "s3d"} {
		pts := cdfs[name]
		if len(pts) != 11 {
			t.Fatalf("%s CDF has %d points, want 11", name, len(pts))
		}
	}
	frac0 := func(name string) float64 {
		pts := cdfs[name]
		total := pts[len(pts)-1].CumulativeMB
		return pts[0].CumulativeMB / total
	}
	if f := frac0("nek5000"); f < 0.18 || f > 0.30 {
		t.Errorf("nek5000 untouched fraction = %.3f, want ~0.243", f)
	}
	if f := frac0("cam"); f < 0.08 || f > 0.20 {
		t.Errorf("cam untouched fraction = %.3f, want ~0.115", f)
	}
	if f := frac0("s3d"); f > 0.06 {
		t.Errorf("s3d untouched fraction = %.3f, want small", f)
	}
	txt := FormatFigure7(cdfs)
	if !strings.Contains(txt, "iterations") {
		t.Error("Figure 7 formatting incomplete")
	}
}

func TestVarianceFiguresStability(t *testing.T) {
	s := testSession()
	// Figures 8-11: > 60% of objects in [1,2) for each app and metric.
	for _, name := range AppNames {
		ratio, rate, err := s.VarianceFigure(name)
		if err != nil {
			t.Fatal(err)
		}
		if share := stableShareOf(ratio); share < 0.6 {
			t.Errorf("%s ratio stable share = %.2f, want > 0.6", name, share)
		}
		if share := stableShareOf(rate); share < 0.6 {
			t.Errorf("%s rate stable share = %.2f, want > 0.6", name, share)
		}
	}
	ratio, rate, _ := s.VarianceFigure("s3d")
	txt := FormatVarianceFigure("s3d", 10, ratio, rate)
	if !strings.Contains(txt, "stable [1,2) share") {
		t.Error("variance figure formatting incomplete")
	}
}

func stableShareOf(dist [][]float64) float64 {
	sum, n := 0.0, 0
	for i := 1; i < len(dist); i++ {
		if len(dist[i]) > 2 {
			sum += dist[i][2]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestTable6Shape(t *testing.T) {
	rows, err := testSession().Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Normalized[0] != 1 {
			t.Errorf("%s DDR3 normalization = %v", r.App, r.Normalized[0])
		}
		for i := 1; i < 4; i++ {
			if r.Normalized[i] > 0.73 {
				t.Errorf("%s %s normalized power = %.3f, want <= 0.73 (>= 27%% saving)",
					r.App, r.Reports[i].Device, r.Normalized[i])
			}
			if r.Normalized[i] < 0.60 {
				t.Errorf("%s %s normalized power = %.3f, implausibly low",
					r.App, r.Reports[i].Device, r.Normalized[i])
			}
		}
		// The loading effect: PCRAM (slowest, least loaded) must draw the
		// least power.  STTRAM vs MRAM ordering depends on the write
		// fraction (they cross at ~25% writes), so allow a small tolerance
		// there, as the paper's own gap is under 0.02.
		if !(r.Normalized[1] <= r.Normalized[2]+1e-9 && r.Normalized[1] <= r.Normalized[3]+1e-9) {
			t.Errorf("%s: PCRAM must be the least loaded: %v", r.App, r.Normalized)
		}
		if r.Normalized[2] > r.Normalized[3]+0.01 {
			t.Errorf("%s: STTRAM exceeds MRAM by more than the tolerance: %v", r.App, r.Normalized)
		}
	}
	txt := FormatTable6(rows)
	if !strings.Contains(txt, "PCRAM") {
		t.Error("Table VI formatting incomplete")
	}
}

func TestFigure12Shape(t *testing.T) {
	rows, err := testSession().Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (Nek5000 and CAM)", len(rows))
	}
	for _, row := range rows {
		var n12, n20, n100 float64
		for _, r := range row.Results {
			switch r.MemLatencyNS {
			case 10:
				if r.Normalized != 1 {
					t.Errorf("%s baseline = %v", row.App, r.Normalized)
				}
			case 12:
				n12 = r.Normalized
			case 20:
				n20 = r.Normalized
			case 100:
				n100 = r.Normalized
			}
		}
		// §VII-E: +20% latency negligible; 2x < 5%; 10x can reach ~25%.
		if n12 > 1.02 {
			t.Errorf("%s MRAM slowdown = %.3f, want negligible (< 2%%)", row.App, n12)
		}
		if n20 > 1.05 {
			t.Errorf("%s STTRAM slowdown = %.3f, want < 5%%", row.App, n20)
		}
		if n100 > 1.30 {
			t.Errorf("%s PCRAM slowdown = %.3f, want <= ~25%%", row.App, n100)
		}
		if n100 <= n20 || n20 < n12 {
			t.Errorf("%s sweep not monotone: %v %v %v", row.App, n12, n20, n100)
		}
	}
	txt := FormatFigure12(rows)
	if !strings.Contains(txt, "normalized") {
		t.Error("Figure 12 formatting incomplete")
	}
	shape := FormatSweepShape(rows[0].Results)
	if !strings.Contains(shape, "10x latency") {
		t.Error("sweep shape formatting incomplete")
	}
}

func TestPlacementHeadline(t *testing.T) {
	plans, err := testSession().Placement()
	if err != nil {
		t.Fatal(err)
	}
	// Abstract: "In two of our applications, 31% and 27% of the memory
	// working sets are suitable for NVRAM."  Nek5000's untouched (24.3%)
	// plus read-only (7.1%) population gives ~31%; CAM's 11.5% + 15.5%
	// gives ~27%.
	nek := plans["nek5000"].NVRAMShare
	if nek < 0.26 || nek > 0.42 {
		t.Errorf("nek5000 NVRAM share = %.3f, want ~0.31", nek)
	}
	cam := plans["cam"].NVRAMShare
	if cam < 0.22 || cam > 0.40 {
		t.Errorf("cam NVRAM share = %.3f, want ~0.27", cam)
	}
	for name, p := range plans {
		if p.NVRAMBytes+p.MigratableBytes+p.DRAMBytes != p.TotalBytes {
			t.Errorf("%s: placement does not partition the footprint", name)
		}
	}
	txt := FormatPlacement(plans)
	if !strings.Contains(txt, "NVRAM share") {
		t.Error("placement formatting incomplete")
	}
}

func TestConformanceAllPass(t *testing.T) {
	checks, err := testSession().Conformance()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 40 {
		t.Fatalf("only %d checks; expected the full headline set", len(checks))
	}
	for _, c := range checks {
		if !c.Pass() {
			t.Errorf("%s / %s: measured %.3f outside [%.3f, %.3f] (paper %s)",
				c.Exhibit, c.Name, c.Measured, c.Lo, c.Hi, c.Paper)
		}
	}
	txt := FormatConformance(checks)
	if !strings.Contains(txt, "checks passed") {
		t.Error("conformance formatting incomplete")
	}
}

func TestWarmParallel(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(2))
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	// Everything the exhibits need is now memoized: these must not re-run.
	r1, err := s.Fast("gtc")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.Fast("gtc")
	if r1 != r2 {
		t.Fatal("warm did not memoize")
	}
	if _, err := s.Slow("cam"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Figure2(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementComparison(t *testing.T) {
	rows, err := testSession().PlacementComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ObjectNVRAMShare < 0 || r.ObjectNVRAMShare > 1 {
			t.Errorf("%s object share = %v", r.App, r.ObjectNVRAMShare)
		}
		if r.PageNVRAMShare < 0 || r.PageNVRAMShare > 1 {
			t.Errorf("%s page share = %v", r.App, r.PageNVRAMShare)
		}
		// The central qualitative claim: object-level placement, armed with
		// the paper's per-structure metrics, exposes almost no writes to
		// NVRAM (it only places untouched/read-only/high-ratio objects).
		if r.ObjectNVRAMWriteShare > 0.05 {
			t.Errorf("%s object-plan NVRAM write exposure = %.3f, want < 0.05",
				r.App, r.ObjectNVRAMWriteShare)
		}
		if r.DRAMBudgetPages <= 0 {
			t.Errorf("%s budget = %d", r.App, r.DRAMBudgetPages)
		}
	}
	txt := FormatPlacementComparison(rows)
	if !strings.Contains(txt, "granularity") {
		t.Error("formatting incomplete")
	}
}

func TestHybridSweepExhibit(t *testing.T) {
	pts, err := testSession().HybridSweep("nek5000", []int{0, 32, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Report.DRAMPages != 0 {
		t.Error("zero budget must keep everything in NVRAM")
	}
	// More DRAM cannot hurt latency (after migrations settle) and cannot
	// raise the NVRAM write share.
	if pts[2].Report.NVRAMWriteShare > pts[0].Report.NVRAMWriteShare {
		t.Errorf("write share rose with budget: %v -> %v",
			pts[0].Report.NVRAMWriteShare, pts[2].Report.NVRAMWriteShare)
	}
	if pts[2].Report.BackgroundSaving > pts[0].Report.BackgroundSaving {
		t.Error("background saving must shrink as the DRAM partition grows")
	}
	txt := FormatHybridSweep("nek5000", pts)
	if !strings.Contains(txt, "budget sweep") {
		t.Error("formatting incomplete")
	}
}

func TestCheckpointStudyExhibit(t *testing.T) {
	pts, err := testSession().CheckpointStudy("nek5000", []int{1000, 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	peta, exa := pts[0], pts[1]
	if peta.Results[0].Efficiency < 0.9 {
		t.Errorf("petascale PFS efficiency = %v", peta.Results[0].Efficiency)
	}
	if exa.Results[0].Efficiency > 0.5 {
		t.Errorf("exascale PFS efficiency = %v, expected collapse", exa.Results[0].Efficiency)
	}
	if exa.Results[1].Efficiency < 0.8 {
		t.Errorf("exascale NVRAM efficiency = %v", exa.Results[1].Efficiency)
	}
	txt := FormatCheckpointStudy("nek5000", pts)
	if !strings.Contains(txt, "Checkpoint/restart") {
		t.Error("formatting incomplete")
	}
}

func TestWearStudyExhibit(t *testing.T) {
	rows, err := testSession().WearStudy("gtc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 streams x 2 schemes)", len(rows))
	}
	// On the skewed stream, Start-Gap must multiply lifetime.
	var skewStatic, skewSG float64
	for _, r := range rows {
		if r.Stream == "skewed hot-spot" {
			if r.Scheme.String() == "static" {
				skewStatic = r.Lifetime
			} else {
				skewSG = r.Lifetime
			}
		}
	}
	if skewSG < skewStatic*3 {
		t.Errorf("start-gap lifetime %v should be >= 3x static %v on the skewed stream",
			skewSG, skewStatic)
	}
	txt := FormatWearStudy("gtc", rows)
	if !strings.Contains(txt, "Wear leveling") {
		t.Error("formatting incomplete")
	}
}

func TestSamplingStudy(t *testing.T) {
	rows, err := testSession().SamplingStudy("nek5000", []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fullRow, sampled := rows[0], rows[1]
	if fullRow.LostObjects != 0 || fullRow.PlacementDiffs != 0 || fullRow.StackRatioError != 0 {
		t.Fatalf("period 1 must be lossless: %+v", fullRow)
	}
	if sampled.ObservedRefs*32 > fullRow.ObservedRefs {
		t.Fatalf("1/64 sampling observed too much: %d of %d", sampled.ObservedRefs, fullRow.ObservedRefs)
	}
	if sampled.LostObjects == 0 {
		t.Error("sampling must lose objects (§III-D)")
	}
	txt := FormatSamplingStudy("nek5000", rows)
	if !strings.Contains(txt, "Sampling study") {
		t.Error("formatting incomplete")
	}
}
