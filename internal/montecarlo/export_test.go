package montecarlo

import "repro/internal/sampling"

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
