package stats

import (
	"fmt"
	"math"
)

// Z95 is the two-sided 95% normal quantile used for CI half-widths.
const Z95 = 1.959963984540054

// Stratified accumulates a post-stratified estimator over K strata with
// known stratum probabilities pi_k: each stratum holds a Welford
// accumulator over its *conditional* weighted terms (the likelihood
// ratio within the stratum times the indicator), plus a raw hit count.
// The estimate is sum_k pi_k * mean_k and its variance is
// sum_k pi_k^2 * var_k / n_k — allocation (how many draws land in each
// stratum) affects only the variance, never the unbiasedness.
//
// Per-stratum state is kept independent so that two campaigns run over
// disjoint stratum subsets merge bit-identically to one sequential run:
// Merge folds stratum k of the other accumulator into stratum k here,
// and every derived quantity folds over strata in index order.
type Stratified struct {
	probs  []float64
	strata []Welford
	hits   []int
}

// NewStratified builds an accumulator over len(probs) strata. The
// probabilities must be non-negative and sum to 1 within 1e-9.
func NewStratified(probs []float64) (*Stratified, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("stats: no strata")
	}
	total := 0.0
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("stats: stratum %d probability is %v", i, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("stats: stratum probabilities sum to %v, want 1", total)
	}
	return &Stratified{
		probs:  append([]float64(nil), probs...),
		strata: make([]Welford, len(probs)),
		hits:   make([]int, len(probs)),
	}, nil
}

// K returns the number of strata.
func (s *Stratified) K() int { return len(s.probs) }

// Prob returns the stratum probability pi_k.
func (s *Stratified) Prob(k int) float64 { return s.probs[k] }

// Add incorporates one draw from stratum k: x is the indicator (or
// outcome) and w the conditional likelihood-ratio weight within the
// stratum. hit marks a raw success, tallied independently of weights.
func (s *Stratified) Add(k int, x, w float64, hit bool) {
	s.strata[k].Add(x * w)
	if hit {
		s.hits[k]++
	}
}

// N returns the total number of draws across all strata.
func (s *Stratified) N() int {
	n := 0
	for i := range s.strata {
		n += s.strata[i].N()
	}
	return n
}

// StratumN returns the number of draws in stratum k.
func (s *Stratified) StratumN(k int) int { return s.strata[k].N() }

// StratumMean returns the running conditional mean of stratum k.
func (s *Stratified) StratumMean(k int) float64 { return s.strata[k].Mean() }

// StratumVariance returns the sample variance of stratum k's weighted
// terms (0 for fewer than two draws).
func (s *Stratified) StratumVariance(k int) float64 { return s.strata[k].Variance() }

// StratumStdDev returns the sample standard deviation of stratum k.
func (s *Stratified) StratumStdDev(k int) float64 { return s.strata[k].StdDev() }

// Hits returns the raw success count of stratum k.
func (s *Stratified) Hits(k int) int { return s.hits[k] }

// TotalHits returns the raw success count across all strata.
func (s *Stratified) TotalHits() int {
	n := 0
	for _, h := range s.hits {
		n += h
	}
	return n
}

// Estimate returns the stratified estimate sum_k pi_k * mean_k, folded
// in stratum index order so merged and sequential campaigns agree
// bit-for-bit. Strata with no draws contribute pi_k * 0; under the
// framework's cone assumption those are exactly the strata whose
// conditional mean is known to be zero.
func (s *Stratified) Estimate() float64 {
	e := 0.0
	for k := range s.strata {
		e += s.probs[k] * s.strata[k].Mean()
	}
	return e
}

// EstVariance returns the variance of the stratified estimator,
// sum_k pi_k^2 * var_k / n_k, folded in stratum index order. Strata
// with fewer than two draws contribute zero (their variance is
// unknown); callers gate stopping decisions on a minimum sample count
// so this early underestimate cannot stop a campaign prematurely.
func (s *Stratified) EstVariance() float64 {
	v := 0.0
	for k := range s.strata {
		n := s.strata[k].N()
		if n < 2 {
			continue
		}
		v += s.probs[k] * s.probs[k] * s.strata[k].Variance() / float64(n)
	}
	return v
}

// StdErr returns the standard error of the stratified estimate.
func (s *Stratified) StdErr() float64 { return math.Sqrt(s.EstVariance()) }

// CIHalfWidth returns the 95% confidence-interval half-width.
func (s *Stratified) CIHalfWidth() float64 { return Z95 * s.StdErr() }

// LLNBound returns the Chebyshev bound on an eps-deviation of the
// stratified estimator, the stratified analogue of Welford.LLNBound:
// Pr[|est - SSF| >= eps] <= Var[est] / eps^2, clamped to 1.
func (s *Stratified) LLNBound(eps float64) float64 {
	if eps <= 0 || s.N() == 0 {
		return 1
	}
	b := s.EstVariance() / (eps * eps)
	if b > 1 {
		return 1
	}
	return b
}

// Merge folds another accumulator into this one stratum by stratum.
// The stratum layouts must match exactly.
func (s *Stratified) Merge(o *Stratified) error {
	if o == nil {
		return nil
	}
	if len(o.probs) != len(s.probs) {
		return fmt.Errorf("stats: merging %d strata into %d", len(o.probs), len(s.probs))
	}
	for k := range s.probs {
		if s.probs[k] != o.probs[k] {
			return fmt.Errorf("stats: stratum %d probability mismatch: %v vs %v", k, s.probs[k], o.probs[k])
		}
	}
	for k := range s.strata {
		s.strata[k].Merge(o.strata[k])
		s.hits[k] += o.hits[k]
	}
	return nil
}

// Clone returns a deep copy.
func (s *Stratified) Clone() *Stratified {
	if s == nil {
		return nil
	}
	return &Stratified{
		probs:  append([]float64(nil), s.probs...),
		strata: append([]Welford(nil), s.strata...),
		hits:   append([]int(nil), s.hits...),
	}
}

// StratifiedState is the exported snapshot of a Stratified accumulator.
// Like WelfordState, the fields are the exact internal state, so a
// State/FromStratifiedState round trip — including through
// encoding/json — reproduces the accumulator bit-identically.
type StratifiedState struct {
	Probs  []float64      `json:"probs"`
	Strata []WelfordState `json:"strata"`
	Hits   []int          `json:"hits"`
}

// State snapshots the accumulator.
func (s *Stratified) State() StratifiedState {
	st := StratifiedState{
		Probs:  append([]float64(nil), s.probs...),
		Strata: make([]WelfordState, len(s.strata)),
		Hits:   append([]int(nil), s.hits...),
	}
	for k := range s.strata {
		st.Strata[k] = s.strata[k].State()
	}
	return st
}

// FromStratifiedState reconstructs an accumulator from a snapshot.
func FromStratifiedState(st StratifiedState) (*Stratified, error) {
	if len(st.Strata) != len(st.Probs) || len(st.Hits) != len(st.Probs) {
		return nil, fmt.Errorf("stats: stratified state shape mismatch: %d probs, %d strata, %d hits",
			len(st.Probs), len(st.Strata), len(st.Hits))
	}
	s, err := NewStratified(st.Probs)
	if err != nil {
		return nil, err
	}
	for k := range st.Strata {
		s.strata[k] = FromWelfordState(st.Strata[k])
		s.hits[k] = st.Hits[k]
	}
	return s, nil
}

// WeightMoments accumulates the first two moments of the
// likelihood-ratio weights, enough to report Kish's effective sample
// size ESS = (sum w)^2 / sum w^2. Sums (not means) are kept so Merge is
// exact integer-like addition and order-independent.
type WeightMoments struct {
	n     int
	sumW  float64
	sumW2 float64
}

// Add incorporates one weight.
func (m *WeightMoments) Add(w float64) {
	m.n++
	m.sumW += w
	m.sumW2 += w * w
}

// N returns the number of weights observed.
func (m *WeightMoments) N() int { return m.n }

// ESS returns Kish's effective sample size (0 when empty). Equal
// weights give ESS == N; weight skew pushes it toward 1.
func (m *WeightMoments) ESS() float64 {
	if m.sumW2 == 0 {
		return 0
	}
	return m.sumW * m.sumW / m.sumW2
}

// Merge folds another accumulator into this one. Plain sum-of-sums, so
// the result is independent of merge order only up to float rounding;
// campaign merges fold in shard index order to stay deterministic.
func (m *WeightMoments) Merge(o WeightMoments) {
	m.n += o.n
	m.sumW += o.sumW
	m.sumW2 += o.sumW2
}

// WeightMomentsState is the exact serialized form of WeightMoments.
type WeightMomentsState struct {
	N     int     `json:"n"`
	SumW  float64 `json:"sum_w"`
	SumW2 float64 `json:"sum_w2"`
}

// State snapshots the accumulator.
func (m *WeightMoments) State() WeightMomentsState {
	return WeightMomentsState{N: m.n, SumW: m.sumW, SumW2: m.sumW2}
}

// FromWeightMomentsState reconstructs an accumulator from a snapshot.
func FromWeightMomentsState(s WeightMomentsState) WeightMoments {
	return WeightMoments{n: s.N, sumW: s.SumW, sumW2: s.SumW2}
}
