package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestStratifiedValidation(t *testing.T) {
	if _, err := NewStratified(nil); err == nil {
		t.Error("empty strata accepted")
	}
	if _, err := NewStratified([]float64{0.5, 0.6}); err == nil {
		t.Error("probabilities summing to 1.1 accepted")
	}
	if _, err := NewStratified([]float64{1.5, -0.5}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewStratified([]float64{0.25, 0.25, 0.5}); err != nil {
		t.Errorf("valid strata rejected: %v", err)
	}
}

func TestStratifiedEstimateMatchesDirect(t *testing.T) {
	probs := []float64{0.2, 0.3, 0.5}
	s, err := NewStratified(probs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	means := []float64{0.9, 0.1, 0.0}
	perStratum := make([][]float64, len(probs))
	for i := 0; i < 3000; i++ {
		k := rng.Intn(len(probs))
		x := 0.0
		if rng.Float64() < means[k] {
			x = 1
		}
		w := 0.5 + rng.Float64()
		s.Add(k, x, w, x > 0)
		perStratum[k] = append(perStratum[k], x*w)
	}
	want := 0.0
	wantVar := 0.0
	for k, xs := range perStratum {
		m := Mean(xs)
		want += probs[k] * m
		var ss float64
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		v := ss / float64(len(xs)-1)
		wantVar += probs[k] * probs[k] * v / float64(len(xs))
	}
	if got := s.Estimate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("estimate %v, want %v", got, want)
	}
	if got := s.EstVariance(); math.Abs(got-wantVar) > 1e-12*wantVar {
		t.Errorf("variance %v, want %v", got, wantVar)
	}
	if s.N() != 3000 {
		t.Errorf("N = %d", s.N())
	}
	if s.StdErr() != math.Sqrt(s.EstVariance()) {
		t.Error("StdErr inconsistent with EstVariance")
	}
	if hw := s.CIHalfWidth(); math.Abs(hw-Z95*s.StdErr()) > 0 {
		t.Errorf("CIHalfWidth %v", hw)
	}
}

// Disjoint-strata merge must be bit-identical to one sequential pass:
// per-stratum accumulators never interleave across strata, and every
// derived fold runs in stratum index order.
func TestStratifiedDisjointMergeBitIdentical(t *testing.T) {
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	seq, _ := NewStratified(probs)
	a, _ := NewStratified(probs)
	b, _ := NewStratified(probs)
	rng := rand.New(rand.NewSource(3))
	type obs struct {
		k int
		x float64
		w float64
	}
	var all []obs
	for i := 0; i < 2000; i++ {
		o := obs{k: rng.Intn(4), w: rng.Float64() + 0.1}
		if rng.Float64() < 0.05 {
			o.x = 1
		}
		all = append(all, o)
	}
	for _, o := range all {
		seq.Add(o.k, o.x, o.w, o.x > 0)
		if o.k < 2 {
			a.Add(o.k, o.x, o.w, o.x > 0)
		} else {
			b.Add(o.k, o.x, o.w, o.x > 0)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != seq.Estimate() {
		t.Errorf("merged estimate %v != sequential %v", a.Estimate(), seq.Estimate())
	}
	if a.EstVariance() != seq.EstVariance() {
		t.Errorf("merged variance %v != sequential %v", a.EstVariance(), seq.EstVariance())
	}
	for k := range probs {
		if a.StratumMean(k) != seq.StratumMean(k) || a.StratumN(k) != seq.StratumN(k) || a.Hits(k) != seq.Hits(k) {
			t.Errorf("stratum %d state diverged", k)
		}
	}
}

func TestStratifiedMergeMismatch(t *testing.T) {
	a, _ := NewStratified([]float64{0.5, 0.5})
	b, _ := NewStratified([]float64{0.25, 0.25, 0.5})
	if err := a.Merge(b); err == nil {
		t.Error("merging mismatched strata counts succeeded")
	}
	c, _ := NewStratified([]float64{0.4, 0.6})
	if err := a.Merge(c); err == nil {
		t.Error("merging mismatched probabilities succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestStratifiedStateRoundTrip(t *testing.T) {
	s, _ := NewStratified([]float64{0.125, 0.375, 0.5})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		s.Add(rng.Intn(3), float64(rng.Intn(2)), rng.Float64()+0.3, rng.Intn(7) == 0)
	}
	raw, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st StratifiedState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	got, err := FromStratifiedState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() || got.EstVariance() != s.EstVariance() {
		t.Error("round trip changed the estimator")
	}
	for k := 0; k < 3; k++ {
		if got.StratumMean(k) != s.StratumMean(k) || got.Hits(k) != s.Hits(k) {
			t.Errorf("stratum %d diverged after round trip", k)
		}
	}
	st.Hits = st.Hits[:2]
	if _, err := FromStratifiedState(st); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestStratifiedClone(t *testing.T) {
	s, _ := NewStratified([]float64{0.5, 0.5})
	s.Add(0, 1, 2, true)
	c := s.Clone()
	c.Add(1, 1, 1, true)
	if s.N() != 1 || c.N() != 2 {
		t.Error("clone shares state")
	}
	var nilS *Stratified
	if nilS.Clone() != nil {
		t.Error("nil clone not nil")
	}
}

func TestWeightMomentsESS(t *testing.T) {
	var m WeightMoments
	if m.ESS() != 0 {
		t.Error("empty ESS not 0")
	}
	for i := 0; i < 100; i++ {
		m.Add(2.5)
	}
	if math.Abs(m.ESS()-100) > 1e-9 {
		t.Errorf("equal-weight ESS %v, want 100", m.ESS())
	}
	var skew WeightMoments
	skew.Add(1000)
	for i := 0; i < 99; i++ {
		skew.Add(1e-6)
	}
	if skew.ESS() > 1.01 {
		t.Errorf("skewed ESS %v, want ~1", skew.ESS())
	}
	var a, b WeightMoments
	for i := 0; i < 50; i++ {
		a.Add(float64(i) + 1)
		b.Add(float64(i) + 51)
	}
	merged := a
	merged.Merge(b)
	var seq WeightMoments
	for i := 0; i < 100; i++ {
		seq.Add(float64(i) + 1)
	}
	if merged.State() != seq.State() {
		t.Error("sum-of-sums merge not exact")
	}
	raw, _ := json.Marshal(merged.State())
	var st WeightMomentsState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if got := FromWeightMomentsState(st); got.State() != merged.State() {
		t.Error("state round trip diverged")
	}
}

func TestStratifiedLLNBound(t *testing.T) {
	s, _ := NewStratified([]float64{1})
	if s.LLNBound(0.1) != 1 {
		t.Error("empty bound not 1")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		s.Add(0, float64(rng.Intn(2)), 1, false)
	}
	if b := s.LLNBound(0.05); b <= 0 || b >= 1 {
		t.Errorf("bound %v out of range", b)
	}
	if s.LLNBound(0) != 1 {
		t.Error("eps=0 bound not clamped")
	}
	want := s.EstVariance() / (0.05 * 0.05)
	if got := s.LLNBound(0.05); math.Abs(got-want) > 1e-15 {
		t.Errorf("bound %v, want %v", got, want)
	}
}
