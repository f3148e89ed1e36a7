package kernels

import (
	"math"
	"testing"

	"nvscavenger/internal/memtrace"
)

func newTracer() *memtrace.Tracer {
	return memtrace.New(memtrace.Config{StackMode: memtrace.FastStack})
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) should cover all values, saw %d", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestLegendreTable(t *testing.T) {
	tr := newTracer()
	xs, _ := tr.GlobalF64("xs", 3)
	xs.Store(0, 0)
	xs.Store(1, 1)
	xs.Store(2, 0.5)
	deg := 3
	table, _ := tr.GlobalF64("leg", (deg+1)*3)
	LegendreTable(tr, xs, table, deg)
	raw := table.Raw()
	// P2(x) = (3x^2-1)/2, P3(x) = (5x^3-3x)/2
	if math.Abs(raw[2*3+0]-(-0.5)) > 1e-12 {
		t.Fatalf("P2(0) = %v, want -0.5", raw[2*3+0])
	}
	if math.Abs(raw[3*3+1]-1) > 1e-12 {
		t.Fatalf("P3(1) = %v, want 1", raw[3*3+1])
	}
	if math.Abs(raw[3*3+2]-(-0.4375)) > 1e-12 {
		t.Fatalf("P3(0.5) = %v, want -0.4375", raw[3*3+2])
	}
}

func TestKernelsAccountCompute(t *testing.T) {
	tr := newTracer()
	n, deg := 16, 4
	xs, _ := tr.GlobalF64("xs", n)
	table, _ := tr.GlobalF64("leg", (deg+1)*n)
	before := tr.Instructions()
	LegendreTable(tr, xs, table, deg)
	after := tr.Instructions()
	memRefs := uint64(n + (deg+1)*n)
	if after-before <= memRefs {
		t.Fatal("kernel must account compute instructions beyond its memory references")
	}
}
