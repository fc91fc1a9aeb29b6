package montecarlo

import (
	"math/rand"

	"repro/internal/sampling"
)

// RunCampaignScalar is the scalar campaign loop, kept as the oracle of
// RunCampaign's batched loop: every draw runs RunOnce and is folded into
// the campaign at once. For the same engine, sampler and options the two
// must agree bit for bit.
func (e *Engine) RunCampaignScalar(sampler sampling.Sampler, opts CampaignOptions) (*Campaign, error) {
	c, sampler, rng, err := e.newCampaign(sampler, opts)
	if err != nil {
		return nil, err
	}
	layout := e.patternLayout(c)
	st, _ := sampler.(sampling.Stratal)
	for i := 0; i < opts.Samples; i++ {
		sample, weight := sampler.Draw(rng)
		res := e.RunOnce(rng, sample, opts.Mode)
		e.accumulate(c, layout, st, sample, weight, &res)
	}
	return c, nil
}

// LatchBoundRejections draws n gate-attack samples from sampler with an
// rng seeded by seed and passes every strike the batched path would
// sweep (single-cycle, inside the recorded window, hitting at least one
// gate) through its injection cycle's latch bound. It returns how many
// such strikes there were, how many the bound rejected, and how many of
// the rejected ones latched a register under a full InjectBits anyway
// (which a sound bound never allows). RunGolden must have been called.
func (e *Engine) LatchBoundRejections(sampler sampling.Sampler, n int, seed int64) (strikes, rejected, unsound int) {
	b := e.ensureBatchState()
	g := e.golden
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		sample, _ := sampler.Draw(rng)
		te := g.TargetCycle - sample.T
		if sample.Cycles > 1 || te < b.lo || te > g.TargetCycle {
			continue
		}
		gates, dists := e.spotIndex().CombWithin(sample.Center, sample.Radius)
		if len(gates) == 0 {
			continue
		}
		strike, _ := e.Attack.StrikeFrom(sample, gates, dists, nil)
		strikes++
		if b.bounds[te-b.lo].MayLatch(strike) {
			continue
		}
		rejected++
		if len(e.Timing.InjectBits(b.comb[te-b.lo], strike).FlippedRegs) > 0 {
			unsound++
		}
	}
	return strikes, rejected, unsound
}
