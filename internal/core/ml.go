package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"exaloglog/internal/zeta"
)

// Coefficients holds the sufficient statistics (α, β) of the log-likelihood
// function (15),
//
//	ln L = -(n/m)·α + Σ_u β_u · ln(1 - e^(-n/(m·2^u))),
//
// extracted from register or token states. Beta[j] stores β_{Lo+j}.
type Coefficients struct {
	// Alpha is α ≥ 0; the per-register contributions are exact integer
	// multiples of 2^-(64-p) and are accumulated in 128-bit fixed point,
	// so Alpha carries no summation error beyond one final rounding.
	Alpha float64
	// Beta[j] counts likelihood terms with exponent u = Lo + j.
	Beta []int32
	// Lo is the smallest possible exponent, t+1 for registers (v+1 for
	// hash tokens).
	Lo int
}

// maxBeta bounds the number of β exponents of any configuration: they
// run from t+1 ≥ 1 to 64-p ≤ 64-MinP.
const maxBeta = 64 - MinP

// mlCoefficientsInto computes the coefficients of the log-likelihood
// function (15) from the register states, following Algorithm 3, with
// Beta backed by buf (EstimateML passes a stack array, so estimating
// allocates nothing). Instead of testing a register's indicator bits one by
// one, it looks up the register's update value u in the configuration's
// mlTable and counts each φ group of indicator bits with one popcount:
// set bits add to β_φ, clear bits add 2^(64-p-φ) each to α'. Both are
// exact integer sums, so the result is bit-identical to the per-bit loop.
//
// The α' accumulator is α·2^(64-p) held as a 128-bit integer (hi, lo);
// individual contributions are bounded by 2^(64-p), so the total is at
// most 2^64·… and never overflows the pair.
func (s *Sketch) mlCoefficientsInto(buf *[maxBeta]int32) Coefficients {
	cfg := s.cfg
	tab := cfg.mlTable()
	lo := cfg.T + 1
	hi := 64 - cfg.P
	// beta[maxBeta] is the sink uBeta names for u = 0, which has no β
	// term; only a hostile blob holds a nonzero register with u = 0.
	var beta [maxBeta + 1]int32
	var zeros [maxBeta]uint64
	var aHi, aLo uint64
	var empty uint64 // all-zero registers: ω(0) each, nothing else
	var chunk [64]uint64
	d := uint(cfg.D)
	m := cfg.NumRegisters()
	for i := 0; i < m; i += len(chunk) {
		regs := chunk[:min(len(chunk), m-i)]
		s.regs.Unpack(i, regs)
		for _, r := range regs {
			if r == 0 {
				empty++
				continue
			}
			u := r >> d
			var carry uint64
			aLo, carry = bits.Add64(aLo, tab.omega[u], 0)
			aHi += carry
			beta[tab.uBeta[u]]++
			for _, g := range tab.groups[tab.start[u]:tab.start[u+1]] {
				ones := uint32(bits.OnesCount64(r & g.mask))
				beta[g.beta] += int32(ones)
				zeros[g.beta] += uint64(g.bits - ones)
			}
		}
	}
	eHi, eLo := bits.Mul64(empty, tab.omega[0])
	var carry uint64
	aLo, carry = bits.Add64(aLo, eLo, 0)
	aHi += eHi + carry
	for j := 0; j <= hi-lo; j++ {
		// zeros[j] clear bits of weight 2^(64-p-φ), φ = lo+j.
		zHi, zLo := bits.Mul64(zeros[j], uint64(1)<<uint(64-cfg.P-lo-j))
		aLo, carry = bits.Add64(aLo, zLo, 0)
		aHi += zHi + carry
	}
	n := copy(buf[:hi-lo+1], beta[:])
	alpha := math.Ldexp(float64(aHi), cfg.P) + math.Ldexp(float64(aLo), cfg.P-64)
	return Coefficients{Alpha: alpha, Beta: buf[:n:n], Lo: lo}
}

// mlTable is what Algorithm 3 needs to know about a register of a given
// configuration, precomputed per update value u for every u the register
// field can hold (also those above MaxUpdateValue, which a hostile blob
// may carry): the ω term of α', the β index of u itself, and the
// register's indicator bits partitioned by the exponent φ(k) of the
// update value k each one records. With 2^t consecutive k per φ, a
// register of ELL(2,20) has at most 6 groups instead of 20 bits.
type mlTable struct {
	omega  []uint64 // ω(u)·2^(64-p) as Algorithm 3 adds it (mod 2^64)
	uBeta  []uint8  // φ(u) - (t+1), or maxBeta when u = 0
	start  []uint32 // groups of u are groups[start[u]:start[u+1]]
	groups []mlGroup
}

type mlGroup struct {
	mask uint64 // indicator bits of the update values k with one φ(k)
	bits uint32 // popcount of mask
	beta uint32 // φ(k) - (t+1)
}

// mlTables caches one mlTable per (t, d, p); tables are immutable once
// published and shared by every sketch of that configuration.
var mlTables [MaxT + 1][MaxD + 1][MaxP + 1]atomic.Pointer[mlTable]

func (c Config) mlTable() *mlTable {
	slot := &mlTables[c.T][c.D][c.P]
	if tab := slot.Load(); tab != nil {
		return tab
	}
	slot.CompareAndSwap(nil, c.newMLTable())
	return slot.Load()
}

func (c Config) newMLTable() *mlTable {
	lo := c.T + 1
	nu := 1 << uint(6+c.T)
	tab := &mlTable{
		omega: make([]uint64, nu),
		uBeta: make([]uint8, nu),
		start: make([]uint32, nu+1),
	}
	for u := int64(0); u < int64(nu); u++ {
		tab.omega[u] = uint64(c.omegaNumerator(u)) << uint(64-c.P-c.phi(u))
		tab.uBeta[u] = maxBeta
		if u >= 1 {
			tab.uBeta[u] = uint8(c.phi(u) - lo)
		}
		tab.start[u] = uint32(len(tab.groups))
		// Indicator bit d-u+k records update value k, for k from
		// max(1, u-d) to u-1; φ(k) is nondecreasing in k, so each φ is
		// one contiguous run.
		k := u - int64(c.D)
		if k < 1 {
			k = 1
		}
		for ; k < u; k++ {
			bit := uint64(1) << uint(int64(c.D)-u+k)
			j := uint32(c.phi(k) - lo)
			if n := len(tab.groups); n > int(tab.start[u]) && tab.groups[n-1].beta == j {
				tab.groups[n-1].mask |= bit
				tab.groups[n-1].bits++
				continue
			}
			tab.groups = append(tab.groups, mlGroup{mask: bit, bits: 1, beta: j})
		}
	}
	tab.start[nu] = uint32(len(tab.groups))
	return tab
}

// SolveML finds the maximum-likelihood distinct-count estimate for a
// likelihood of shape (15) with coefficients c and register count m,
// using the Newton iteration of Algorithm 8 (Appendix A). It returns 0 if
// all β are zero (pristine state) and +Inf if α = 0 (fully saturated
// state, which the paper notes occurs only at entirely unrealistic
// distinct counts).
func SolveML(c Coefficients, m float64) float64 {
	est, _ := SolveMLCounted(c, m)
	return est
}

// SolveMLCounted is SolveML plus the number of Newton iterations
// performed. Appendix A reports that the iteration count never exceeded
// 10 in any of the paper's experiments; tests assert the same here.
func SolveMLCounted(c Coefficients, m float64) (float64, int) {
	sigma0 := 0.0
	sigma1 := 0.0
	uMin, uMax := -1, 0
	for j, b := range c.Beta {
		if b > 0 {
			u := c.Lo + j
			if uMin < 0 {
				uMin = u
			}
			uMax = u
			sigma0 += float64(b)
			sigma1 += math.Ldexp(float64(b), -u) // β_j · 2^-j, see (27)
		}
	}
	if uMin < 0 {
		return 0, 0 // all β_j zero: the ML estimate of a pristine state
	}
	if c.Alpha <= 0 {
		return math.Inf(1), 0 // all registers saturated
	}
	sigma1 = math.Ldexp(sigma1, uMax)
	a2u := c.Alpha * math.Ldexp(1, uMax)
	x := sigma1 / a2u
	iterations := 0
	if uMin < uMax {
		// Lower bracket (27); guaranteed f(x0) <= 0 by Lemma B.3.
		x = math.Expm1(math.Log1p(x) * (sigma0 / sigma1))
		for {
			iterations++
			// Sum φ(x) (17) and ψ(x) (28) with the recursions
			// (20)-(22) and (30); all quantities stay in safe ranges.
			lambda := 1.0
			eta := 0.0
			y := x
			u := uMax
			phi := float64(c.Beta[u-c.Lo])
			psi := 0.0
			for {
				u--
				z := 2 / (2 + y)
				lambda *= z
				eta = eta*(2-z) + (1 - z)
				if b := c.Beta[u-c.Lo]; b > 0 {
					phi += float64(b) * lambda
					psi += float64(b) * lambda * eta
				}
				if u <= uMin {
					break
				}
				y *= y + 2
			}
			xp := a2u * x
			if phi <= xp {
				break // f(x) >= 0: converged (or numeric error floor)
			}
			xOld := x
			x *= 1 + (phi-xp)/(psi+xp)
			if x <= xOld {
				break // numerically converged
			}
		}
	}
	return m * math.Ldexp(1, uMax) * math.Log1p(x), iterations
}

// EstimateML returns the maximum-likelihood distinct-count estimate with
// the first-order bias correction of equation (4) applied.
func (s *Sketch) EstimateML() float64 {
	var beta [maxBeta]int32
	raw := SolveML(s.mlCoefficientsInto(&beta), float64(s.cfg.NumRegisters()))
	if s.biasC == 0 {
		// Cached lazily: Hurwitz zeta evaluation is ~100x the cost of
		// the remaining estimation work.
		s.biasC = s.biasCorrectionConstant()
	}
	return raw / (1 + s.biasC/float64(s.cfg.NumRegisters()))
}

// EstimateMLUncorrected returns the raw ML estimate without bias
// correction (used by tests and the ablation benchmarks).
func (s *Sketch) EstimateMLUncorrected() float64 {
	var beta [maxBeta]int32
	return SolveML(s.mlCoefficientsInto(&beta), float64(s.cfg.NumRegisters()))
}

// Estimate returns the sketch's best distinct-count estimate: the
// martingale estimate when martingale tracking is enabled (smaller error,
// Section 3.3), and the bias-corrected ML estimate otherwise.
func (s *Sketch) Estimate() float64 {
	if s.martingale {
		return s.martingaleN
	}
	return s.EstimateML()
}

// biasCorrectionConstant computes c of equation (4) with b = 2^(2^-t).
func (s *Sketch) biasCorrectionConstant() float64 {
	return BiasCorrectionConstant(s.cfg.T, s.cfg.D)
}

// BiasCorrectionConstant returns the constant c of the first-order ML bias
// correction (4) for parameters (t, d), with b = 2^(2^-t). The corrected
// estimate is n̂_ML / (1 + c/m). Exposed for the hardcoded fast-path
// variants and estimator tooling.
func BiasCorrectionConstant(t, d int) float64 {
	b := math.Exp2(math.Exp2(-float64(t)))
	y := math.Pow(b, -float64(d)) / (b - 1)
	z2 := zeta.Hurwitz(2, 1+y)
	z3 := zeta.Hurwitz(3, 1+y)
	return math.Log(b) * (1 + 2*y) * z3 / (z2 * z2)
}
