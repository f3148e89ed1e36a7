package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nvscavenger/internal/core"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/stats"
)

// FormatTable1 renders Table I.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Applications characteristics\n")
	fmt.Fprintf(&b, "%-10s %-52s %-58s %s\n", "App", "Input problem size", "Description", "Footprint/task")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-52s %-58s %.1f MB\n", r.App, r.Input, r.Description, r.FootprintMB)
	}
	return b.String()
}

// FormatTable5 renders Table V.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: Stack data analysis (fast tool)\n")
	fmt.Fprintf(&b, "%-10s %-22s %s\n", "App", "Read/write ratio", "Reference percentage")
	for _, r := range rows {
		ratio := fmt.Sprintf("%.2f", r.SteadyRatio)
		if r.FirstIterRatio < r.SteadyRatio*0.8 {
			ratio = fmt.Sprintf("%.2f (%.2f)", r.SteadyRatio, r.FirstIterRatio)
		}
		fmt.Fprintf(&b, "%-10s %-22s %.1f%%\n", r.App, ratio, r.ReferencePct)
	}
	return b.String()
}

// FormatFigure2 renders the CAM stack-frame analysis.
func FormatFigure2(recs []core.ObjectRecord, fig core.Figure2Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: CAM stack data, per-routine (slow tool)\n")
	fmt.Fprintf(&b, "objects with R/W > 10: %.1f%% of objects, %.1f%% of references\n",
		fig.CountOver10*100, fig.RefsOver10*100)
	fmt.Fprintf(&b, "objects with R/W > 50: %.1f%% of objects, %.1f%% of references\n",
		fig.CountOver50*100, fig.RefsOver50*100)
	sorted := append([]core.ObjectRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Refs > sorted[j].Refs })
	fmt.Fprintf(&b, "%-22s %12s %14s %12s\n", "routine", "r/w ratio", "refs/Minstr", "refs")
	for _, r := range sorted {
		fmt.Fprintf(&b, "%-22s %12.2f %14.1f %12d\n", r.Name, r.RWRatio, r.RefRate, r.Refs)
	}
	return b.String()
}

// FormatObjectFigure renders one of Figures 3-6.
func FormatObjectFigure(app string, figNum int, recs []core.ObjectRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s global and heap memory objects\n", figNum, app)
	fmt.Fprintf(&b, "%-18s %-7s %12s %14s %12s %-10s %s\n",
		"object", "segment", "r/w ratio", "refs/Minstr", "size (KB)", "pattern", "notes")
	sorted := append([]core.ObjectRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SizeBytes > sorted[j].SizeBytes })
	var roBytes, total uint64
	for _, r := range sorted {
		note := ""
		switch {
		case r.Untouched:
			note = "untouched in main loop"
		case r.ReadOnly:
			note = "read-only"
			roBytes += r.SizeBytes
		case r.RWRatio > 50:
			note = "r/w > 50"
		}
		total += r.SizeBytes
		fmt.Fprintf(&b, "%-18s %-7s %12.2f %14.1f %12.1f %-10s %s\n",
			r.Name, r.Segment.String(), r.RWRatio, r.RefRate, float64(r.SizeBytes)/1024,
			r.Pattern, note)
	}
	if total > 0 {
		fmt.Fprintf(&b, "read-only data: %.1f MB (%.1f%% of global+heap footprint)\n",
			float64(roBytes)/(1<<20), float64(roBytes)/float64(total)*100)
	}
	return b.String()
}

// FormatFigure7 renders the cumulative memory-usage distributions.
func FormatFigure7(cdfs map[string][]core.UsagePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Cumulative distribution of memory usage across time steps\n")
	names := make([]string, 0, len(cdfs))
	for n := range cdfs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		pts := cdfs[name]
		fmt.Fprintf(&b, "%s:\n", name)
		total := pts[len(pts)-1].CumulativeMB
		for _, p := range pts {
			pct := 0.0
			if total > 0 {
				pct = p.CumulativeMB / total * 100
			}
			fmt.Fprintf(&b, "  <= %2d iterations: %8.2f MB (%5.1f%%) %s\n",
				p.Iterations, p.CumulativeMB, pct, stats.HBar(p.CumulativeMB, total, 30))
		}
	}
	return b.String()
}

// FormatVarianceFigure renders one of Figures 8-11.
func FormatVarianceFigure(app string, figNum int, ratio, rate [][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s normalized metric variance across iterations\n", figNum, app)
	binLabel := func(i int) string {
		lo, hi := stats.VarianceBins[i], stats.VarianceBins[i+1]
		return fmt.Sprintf("[%.1f,%.1f)", lo, hi)
	}
	render := func(title string, dist [][]float64) {
		fmt.Fprintf(&b, "  %s (share of objects per bin):\n", title)
		fmt.Fprintf(&b, "    %-6s", "iter")
		for i := 0; i < len(stats.VarianceBins)-1; i++ {
			fmt.Fprintf(&b, " %10s", binLabel(i))
		}
		fmt.Fprintln(&b)
		for it := 1; it < len(dist); it++ {
			fmt.Fprintf(&b, "    %-6d", it)
			for _, f := range dist[it] {
				fmt.Fprintf(&b, " %10.3f", f)
			}
			fmt.Fprintln(&b)
		}
	}
	render("read/write ratio", ratio)
	render("reference rate", rate)
	fmt.Fprintf(&b, "  stable [1,2) share: ratio %.1f%%, rate %.1f%%\n",
		core.StableShare(ratio)*100, core.StableShare(rate)*100)
	return b.String()
}

// FormatTable6 renders the normalized power table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: Normalized average power consumption\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "App", "DDR3", "PCRAM", "STTRAM", "MRAM")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.App)
		for _, n := range r.Normalized {
			fmt.Fprintf(&b, " %8.3f", n)
		}
		fmt.Fprintln(&b)
	}
	// Bars make the >=27% saving visible at a glance.
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s PCRAM %s\n", r.App, stats.HBar(r.Normalized[1], 1, 30))
	}
	return b.String()
}

// FormatFigure12 renders the latency-sensitivity sweep.
func FormatFigure12(rows []Figure12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: Time simulation results (one main-loop iteration)\n")
	fmt.Fprintf(&b, "%-10s %-8s %12s %14s %10s\n", "App", "Memory", "latency (ns)", "cycles", "normalized")
	for _, row := range rows {
		maxNorm := 0.0
		for _, r := range row.Results {
			if r.Normalized > maxNorm {
				maxNorm = r.Normalized
			}
		}
		for _, r := range row.Results {
			fmt.Fprintf(&b, "%-10s %-8s %12.0f %14.0f %10.3f %s\n",
				row.App, r.Device, r.MemLatencyNS, r.Stats.Cycles, r.Normalized,
				stats.HBar(r.Normalized, maxNorm, 30))
		}
	}
	return b.String()
}

// FormatPlacement renders the placement study.
func FormatPlacement(plans map[string]core.PlacementSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hybrid DRAM/NVRAM placement (category-2 policy)\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %10s %12s\n", "App", "NVRAM", "migratable", "DRAM", "NVRAM share")
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		p := plans[name]
		mb := func(v uint64) string { return fmt.Sprintf("%.1f MB", float64(v)/(1<<20)) }
		fmt.Fprintf(&b, "%-10s %10s %12s %10s %11.1f%%\n",
			name, mb(p.NVRAMBytes), mb(p.MigratableBytes), mb(p.DRAMBytes), p.NVRAMShare*100)
	}
	return b.String()
}

// FormatSweepShape summarizes Figure 12 the way §VII-E words it.
func FormatSweepShape(res []cpusim.SweepResult) string {
	var m12, s20, p100 float64
	for _, r := range res {
		switch r.MemLatencyNS {
		case 12:
			m12 = r.Normalized
		case 20:
			s20 = r.Normalized
		case 100:
			p100 = r.Normalized
		}
	}
	return fmt.Sprintf("+20%% latency -> %+.1f%%; 2x latency -> %+.1f%%; 10x latency -> %+.1f%%",
		(m12-1)*100, (s20-1)*100, (p100-1)*100)
}
