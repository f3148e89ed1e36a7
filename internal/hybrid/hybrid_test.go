package hybrid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/trace"
)

// mustNew builds a System from a config the test knows is valid.
func mustNew(t testing.TB, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyConfig(budget int) Config {
	return Config{
		PageBytes:         4096,
		DRAMBudgetPages:   budget,
		EpochTransactions: 1000,
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	s := mustNew(t, Config{DRAMBudgetPages: 1})
	if s.cfg.PageBytes != 4096 || s.cfg.EpochTransactions != 100000 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
	if s.cfg.DRAM.Name != "DDR3" || s.cfg.NVRAM.Name != "PCRAM" {
		t.Fatalf("default profiles wrong: %s/%s", s.cfg.DRAM.Name, s.cfg.NVRAM.Name)
	}
	bad := []Config{
		{PageBytes: 1000},
		{DRAMBudgetPages: -1},
		{EpochTransactions: -5},
		{WriteWeight: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{PageBytes: 3}); err == nil {
		t.Fatal("non-power-of-two page size must be rejected")
	}
}

func TestLocationString(t *testing.T) {
	if InDRAM.String() != "DRAM" || InNVRAM.String() != "NVRAM" {
		t.Fatal("location strings wrong")
	}
}

func TestPagesStartInNVRAM(t *testing.T) {
	s := mustNew(t, tinyConfig(4))
	for i := 0; i < 10; i++ {
		s.Transaction(trace.Transaction{Addr: uint64(i) * 4096})
	}
	r := s.Report()
	if r.DRAMPages != 0 || r.NVRAMPages != 10 {
		t.Fatalf("initial placement = %d DRAM / %d NVRAM, want all NVRAM", r.DRAMPages, r.NVRAMPages)
	}
	if r.DRAMServiceFraction != 0 {
		t.Fatal("no access should have been served by DRAM before the first epoch")
	}
}

func TestHotPagesPromoted(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	// Pages 0 and 1 are hot; pages 2..9 cold.
	for e := 0; e < 3; e++ {
		for i := 0; i < 1000; i++ {
			pn := uint64(i % 2)
			if i%100 == 0 {
				pn = uint64(2 + i/100%8)
			}
			s.Transaction(trace.Transaction{Addr: pn * 4096})
		}
	}
	r := s.Report()
	if r.DRAMPages != 2 {
		t.Fatalf("DRAM pages = %d, want the 2 hot pages", r.DRAMPages)
	}
	if s.pages[0].loc != InDRAM || s.pages[1].loc != InDRAM {
		t.Fatal("hot pages must be in DRAM")
	}
	if r.DRAMServiceFraction < 0.5 {
		t.Fatalf("DRAM service fraction = %v after promotion", r.DRAMServiceFraction)
	}
}

func TestWriteIntensityPrioritized(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.WriteWeight = 10
	s := mustNew(t, cfg)
	// Page 0: 400 reads. Page 1: 100 writes (score 1000 > 400).
	for e := 0; e < 2; e++ {
		for i := 0; i < 800; i++ {
			s.Transaction(trace.Transaction{Addr: 0, Write: false})
			if i%8 == 0 {
				s.Transaction(trace.Transaction{Addr: 4096, Write: true})
			}
		}
	}
	if s.pages[1].loc != InDRAM {
		t.Fatal("write-intensive page must win the DRAM slot")
	}
	if s.pages[0].loc != InNVRAM {
		t.Fatal("read-popular page loses to the write-intensive one at weight 10")
	}
}

func TestBudgetRespected(t *testing.T) {
	s := mustNew(t, tinyConfig(3))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s.Transaction(trace.Transaction{Addr: uint64(rng.Intn(50)) * 4096, Write: rng.Intn(3) == 0})
	}
	r := s.Report()
	if r.DRAMPages > 3 {
		t.Fatalf("DRAM pages = %d exceeds budget 3", r.DRAMPages)
	}
	if r.DRAMPages+r.NVRAMPages != r.Pages {
		t.Fatal("partition does not sum")
	}
}

func TestStableWorkloadStopsMigrating(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	workload := func() {
		for i := 0; i < 1000; i++ {
			s.Transaction(trace.Transaction{Addr: uint64(i%2) * 4096})
			s.Transaction(trace.Transaction{Addr: uint64(10+i%5) * 4096})
		}
	}
	workload()
	afterFirst := s.promotions + s.demotions
	if afterFirst == 0 {
		t.Fatal("first epochs must migrate the hot pages")
	}
	for e := 0; e < 5; e++ {
		workload()
	}
	afterMany := s.promotions + s.demotions
	if afterMany != afterFirst {
		t.Fatalf("stable workload kept migrating: %d -> %d", afterFirst, afterMany)
	}
}

func TestPhaseChangeTriggersMigration(t *testing.T) {
	s := mustNew(t, tinyConfig(1))
	for i := 0; i < 2000; i++ {
		s.Transaction(trace.Transaction{Addr: 0})
	}
	if s.pages[0].loc != InDRAM {
		t.Fatal("phase 1 hot page not promoted")
	}
	// Phase 2: page 5 becomes the hot one.
	for i := 0; i < 2000; i++ {
		s.Transaction(trace.Transaction{Addr: 5 * 4096})
	}
	if s.pages[5].loc != InDRAM {
		t.Fatal("phase 2 hot page not promoted")
	}
	if s.pages[0].loc != InNVRAM {
		t.Fatal("old hot page not demoted")
	}
	r := s.Report()
	if r.Demotions == 0 {
		t.Fatal("demotion not counted")
	}
}

func TestColdPagesNeverEnterDRAM(t *testing.T) {
	cfg := tinyConfig(10)
	cfg.MinScore = 5
	s := mustNew(t, cfg)
	// 1000 pages touched once each: all below MinScore.
	for i := 0; i < 1000; i++ {
		s.Transaction(trace.Transaction{Addr: uint64(i) * 4096})
	}
	r := s.Report()
	if r.DRAMPages != 0 {
		t.Fatalf("cold pages promoted: %d", r.DRAMPages)
	}
}

func TestReportLatencyBounds(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		pn := uint64(rng.Intn(4))
		if rng.Intn(10) == 0 {
			pn = uint64(4 + rng.Intn(40))
		}
		s.Transaction(trace.Transaction{Addr: pn * 4096, Write: rng.Intn(4) == 0})
	}
	r := s.Report()
	if r.AllDRAMLatencyNS <= 0 || r.AllNVRAMLatencyNS <= r.AllDRAMLatencyNS {
		t.Fatalf("latency bounds wrong: DRAM %v NVRAM %v", r.AllDRAMLatencyNS, r.AllNVRAMLatencyNS)
	}
	if r.AvgLatencyNS < r.AllDRAMLatencyNS {
		t.Fatalf("hybrid %v cannot beat all-DRAM %v", r.AvgLatencyNS, r.AllDRAMLatencyNS)
	}
	// With the hot pages promoted, the hybrid should beat all-NVRAM.
	if r.AvgLatencyNS >= r.AllNVRAMLatencyNS {
		t.Fatalf("hybrid %v should beat all-NVRAM %v", r.AvgLatencyNS, r.AllNVRAMLatencyNS)
	}
	if r.BackgroundSaving <= 0 || r.BackgroundSaving >= 1 {
		t.Fatalf("background saving = %v", r.BackgroundSaving)
	}
	if r.BackgroundMW >= r.AllDRAMBackgroundMW {
		t.Fatal("hybrid background must undercut all-DRAM")
	}
}

func TestNVRAMWriteShareDropsWithPlacement(t *testing.T) {
	mk := func(budget int) float64 {
		s := mustNew(t, tinyConfig(budget))
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			// Writes concentrate on pages 0-1.
			if rng.Intn(2) == 0 {
				s.Transaction(trace.Transaction{Addr: uint64(rng.Intn(2)) * 4096, Write: true})
			} else {
				s.Transaction(trace.Transaction{Addr: uint64(rng.Intn(30)) * 4096, Write: false})
			}
		}
		return s.Report().NVRAMWriteShare
	}
	withBudget, without := mk(2), mk(0)
	if without != 1 {
		t.Fatalf("zero budget must leave every write in NVRAM, got %v", without)
	}
	if withBudget > 0.2 {
		t.Fatalf("write share with budget = %v, want most writes captured by DRAM", withBudget)
	}
}

func TestCustomProfiles(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.NVRAM = dramsim.STTRAM()
	s := mustNew(t, cfg)
	for i := 0; i < 3000; i++ {
		s.Transaction(trace.Transaction{Addr: uint64(i%3) * 4096})
	}
	r := s.Report()
	// STTRAM reads match DRAM (10ns), so the all-NVRAM read-only bound
	// equals all-DRAM.
	if r.AllNVRAMLatencyNS != r.AllDRAMLatencyNS {
		t.Fatalf("read-only STTRAM bound %v != DRAM %v", r.AllNVRAMLatencyNS, r.AllDRAMLatencyNS)
	}
}

// Property: service counters always sum to the number of transactions, and
// the partition always sums to the page count.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, n uint16, budget uint8) bool {
		s := mustNew(t, tinyConfig(int(budget%16)))
		rng := rand.New(rand.NewSource(seed))
		count := int(n%5000) + 1
		for i := 0; i < count; i++ {
			s.Transaction(trace.Transaction{
				Addr:  uint64(rng.Intn(64)) * 4096,
				Write: rng.Intn(2) == 0,
			})
		}
		r := s.Report()
		if r.DRAMReads+r.DRAMWrites+r.NVRAMReads+r.NVRAMWrites != uint64(count) {
			return false
		}
		if r.DRAMPages+r.NVRAMPages != r.Pages {
			return false
		}
		return r.DRAMPages <= int(budget%16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: average latency always lies within [allDRAM - eps, allNVRAM +
// migration overhead]; with zero migrations it is within the pure bounds.
func TestQuickLatencyWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		s := mustNew(t, tinyConfig(4))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			s.Transaction(trace.Transaction{
				Addr:  uint64(rng.Intn(32)) * 4096,
				Write: rng.Intn(3) == 0,
			})
		}
		r := s.Report()
		return r.AvgLatencyNS >= r.AllDRAMLatencyNS-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
