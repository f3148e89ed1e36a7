// Package kernels provides the shared numerical building blocks of the four
// mini-applications.  Every kernel computes on instrumented arrays, so each
// floating-point load/store appears in the access stream, and accounts its
// arithmetic through Tracer.Compute so the reference-rate denominator and
// the performance model see a realistic instruction mix.
package kernels

import "nvscavenger/internal/memtrace"

// RNG is a small deterministic xorshift64* generator.  The mini-apps must
// not depend on math/rand's global state: runs have to be reproducible for
// the experiment harness.
type RNG struct{ state uint64 }

// NewRNG seeds a generator; a zero seed is replaced by a fixed constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("kernels: Intn with non-positive n") //nvlint:ignore errcontract invariant assertion; runner.Recover absorbs it per run
	}
	return int(r.Uint64() % uint64(n))
}

// FillRandom stores uniform values in [lo, hi) into a traced array.
func FillRandom(a memtrace.F64, rng *RNG, lo, hi float64) {
	for i := 0; i < a.Len(); i++ {
		a.Store(i, lo+(hi-lo)*rng.Float64())
	}
}

// LegendreTable fills table with the Legendre polynomials P_0..P_{deg}
// evaluated at the given traced abscissae: table[d*len(x)+i] = P_d(x_i).
// This is CAM's transform-constant construction.
func LegendreTable(tr *memtrace.Tracer, xs memtrace.F64, table memtrace.F64, deg int) {
	n := xs.Len()
	for i := 0; i < n; i++ {
		x := xs.Load(i)
		p0, p1 := 1.0, x
		table.Store(0*n+i, p0)
		if deg >= 1 {
			table.Store(1*n+i, p1)
		}
		for d := 2; d <= deg; d++ {
			p := ((2*float64(d)-1)*x*p1 - (float64(d)-1)*p0) / float64(d)
			table.Store(d*n+i, p)
			p0, p1 = p1, p
		}
		tr.Compute(uint64(5 * deg))
	}
}
