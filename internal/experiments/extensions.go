package experiments

import (
	"fmt"
	"strings"

	"nvscavenger/internal/checkpoint"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/hybrid"
	"nvscavenger/internal/wear"
)

// Extension exhibits: studies beyond the paper's tables and figures that
// its discussion motivates — hybrid-memory budget sweeps (§II/§VIII),
// checkpointing at scale (§I), and wear leveling (§II endurance).

// HybridPoint is one DRAM-budget point of the hybrid sweep.
type HybridPoint struct {
	BudgetPages  int
	Report       hybrid.Report
	AvgLatencyNS float64
}

// HybridSweep replays an app's cache-filtered traffic through the dynamic
// page-placement system at increasing DRAM budgets.
func (s *Session) HybridSweep(app string, budgets []int) ([]HybridPoint, error) {
	run, err := s.Fast(app)
	if err != nil {
		return nil, err
	}
	epoch := len(run.Transactions) / 10
	if epoch < 5000 {
		epoch = 5000
	}
	out := make([]HybridPoint, 0, len(budgets))
	for _, budget := range budgets {
		sys, err := hybrid.New(hybrid.Config{
			DRAMBudgetPages:   budget,
			EpochTransactions: epoch,
		})
		if err != nil {
			return nil, err
		}
		for _, tx := range run.Transactions {
			if err := sys.Transaction(tx); err != nil {
				return nil, err
			}
		}
		rep := sys.Report()
		out = append(out, HybridPoint{BudgetPages: budget, Report: rep, AvgLatencyNS: rep.AvgLatencyNS})
	}
	return out, nil
}

// FormatHybridSweep renders the sweep.
func FormatHybridSweep(app string, pts []HybridPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hybrid DRAM+PCRAM dynamic page placement: %s budget sweep\n", app)
	fmt.Fprintf(&b, "%12s %10s %10s %12s %12s %14s %12s\n",
		"DRAM budget", "DRAM pages", "migrations", "DRAM svc %", "NV write %", "avg lat (ns)", "bg saving %")
	for _, p := range pts {
		r := p.Report
		fmt.Fprintf(&b, "%12d %10d %10d %11.1f%% %11.1f%% %14.2f %11.1f%%\n",
			p.BudgetPages, r.DRAMPages, r.Promotions+r.Demotions,
			r.DRAMServiceFraction*100, r.NVRAMWriteShare*100,
			r.AvgLatencyNS, r.BackgroundSaving*100)
	}
	return b.String()
}

// CheckpointStudy evaluates §I's checkpointing argument with the measured
// Table I footprint of the given app scaled back to the paper's per-task
// size.
func (s *Session) CheckpointStudy(app string, nodes []int) ([]checkpoint.SweepPoint, error) {
	run, err := s.Fast(app)
	if err != nil {
		return nil, err
	}
	// Scale the measured footprint back up to the paper's per-task size
	// (DESIGN.md: problem sizes are the paper's divided by ~64/scale).
	perTask := float64(run.Tracer.Footprint()) * 64 / s.cfg.scale
	base := checkpoint.System{
		StateBytesPerNode: perTask,
		NodeMTBFHours:     50000,
		RestartSeconds:    10,
	}
	return checkpoint.Sweep(base, nodes,
		[]checkpoint.Target{checkpoint.ParallelFS(), checkpoint.NodeNVRAM()})
}

// FormatCheckpointStudy renders the sweep.
func FormatCheckpointStudy(app string, pts []checkpoint.SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint/restart efficiency at scale (state = %s footprint per task)\n", app)
	fmt.Fprintf(&b, "%10s %14s | %12s %10s | %12s %10s\n",
		"nodes", "sys MTBF (s)", "PFS delta", "PFS eff", "NVRAM delta", "NVRAM eff")
	for _, pt := range pts {
		pfs, nv := pt.Results[0], pt.Results[1]
		fmt.Fprintf(&b, "%10d %14.1f | %11.1fs %9.1f%% | %11.2fs %9.1f%%\n",
			pt.Nodes, pfs.SystemMTBFSeconds,
			pfs.DeltaSeconds, pfs.Efficiency*100,
			nv.DeltaSeconds, nv.Efficiency*100)
	}
	return b.String()
}

// WearRow compares the two line-placement schemes for one write stream.
type WearRow struct {
	Stream    string
	Scheme    wear.Scheme
	Imbalance float64
	Lifetime  float64
}

// WearStudy tracks the writeback stream of the app's hottest heap object
// under static and Start-Gap placement, plus a synthetic skewed stream over
// the same region.
func (s *Session) WearStudy(app string) ([]WearRow, error) {
	run, err := s.Fast(app)
	if err != nil {
		return nil, err
	}
	// Hottest written heap/global object by main-loop writes.
	var hottest struct {
		base, size uint64
		writes     uint64
	}
	for _, o := range run.Tracer.Objects() {
		if o.Size < 64*64 { // need at least 64 lines
			continue
		}
		if w := o.LoopStats().Writes; w > hottest.writes {
			hottest.base, hottest.size, hottest.writes = o.Base, o.Size, w
		}
	}
	if hottest.size == 0 {
		return nil, fmt.Errorf("experiments: %s has no sizable written object", app)
	}
	lines := int(hottest.size / 64)

	prof := dramsim.PCRAM()
	var out []WearRow
	track := func(stream string, addrs []uint64) error {
		for _, scheme := range []wear.Scheme{wear.Static, wear.StartGap} {
			tr, err := wear.NewTracker(wear.Config{
				BaseAddr: hottest.base, Lines: lines, Scheme: scheme, GapMovePeriod: 10,
			})
			if err != nil {
				return err
			}
			for _, a := range addrs {
				tr.Write(a)
			}
			rep := tr.Report()
			out = append(out, WearRow{
				Stream: stream, Scheme: scheme,
				Imbalance: rep.Imbalance, Lifetime: tr.LifetimeWrites(prof),
			})
		}
		return nil
	}

	var measured []uint64
	for _, tx := range run.Transactions {
		if tx.Write && tx.Addr >= hottest.base && tx.Addr < hottest.base+hottest.size {
			measured = append(measured, tx.Addr)
		}
	}
	if err := track("measured writebacks", measured); err != nil {
		return nil, err
	}

	h := uint64(1)
	skewed := make([]uint64, 0, 200000)
	for i := 0; i < 200000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		line := h % uint64(lines)
		if i%2 == 0 {
			line = h % 8
		}
		skewed = append(skewed, hottest.base+line*64)
	}
	if err := track("skewed hot-spot", skewed); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatWearStudy renders the comparison.
func FormatWearStudy(app string, rows []WearRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wear leveling on %s's hottest written region (PCRAM endurance)\n", app)
	fmt.Fprintf(&b, "%-22s %-10s %12s %18s\n", "stream", "scheme", "imbalance", "lifetime (writes)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-10s %12.2f %18.2e\n", r.Stream, r.Scheme, r.Imbalance, r.Lifetime)
	}
	return b.String()
}
