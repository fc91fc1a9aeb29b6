package montecarlo

import (
	"fmt"
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

// RecordLaneExits makes the engine's batched resumes record how every
// diverged lane (one whose responses left the golden trace) retires,
// until the next RunGolden. RunGolden must have been called.
func (e *Engine) RecordLaneExits() {
	e.ensureBatchState().exits = new([]laneExit)
}

// LaneExits reports how many diverged lanes retired since
// RecordLaneExits, and how many of them through the convergence cut.
func (e *Engine) LaneExits() (diverged, cut int) {
	for _, x := range *e.batch.exits {
		if x.cut {
			cut++
		}
	}
	return len(*e.batch.exits), cut
}

// ReplayDivergedLanes re-runs the scalar fallback (resumeInjected) of
// every recorded diverged lane and requires the same (ResumeCycles,
// Success) as results, which must be the results of the RunBatch call
// that recorded the lanes. Unless the lane's result came from that
// fallback, the scalar SoC must also end in the lane's state: the same
// cycle and system digest, and lane 0 of every MPU register equal to the
// lane's bit. It returns the number of lanes replayed and clears the
// record.
func (e *Engine) ReplayDivergedLanes(results []RunResult) (int, error) {
	exits := *e.batch.exits
	*e.batch.exits = nil
	s := e.SoC
	for _, x := range exits {
		got := results[x.idx]
		resumed, success := e.resumeInjected(x.te, got.Flipped)
		if got.ResumeCycles != resumed || got.Success != success {
			return 0, fmt.Errorf("sample %d (te %d, cut %v): batched (%d, %v), scalar (%d, %v)",
				x.idx, x.te, x.cut, got.ResumeCycles, got.Success, resumed, success)
		}
		if x.replayed {
			continue
		}
		if s.Cycle() != x.sys.Cycle() || !s.SameDigest(&x.sys) {
			return 0, fmt.Errorf("sample %d (te %d): system state differs from the scalar resume at cycle %d", x.idx, x.te, s.Cycle())
		}
		for i, r := range s.MPU.Netlist.Regs() {
			if s.Sim.Bool(r) != x.regs[i] {
				return 0, fmt.Errorf("sample %d (te %d): register %d differs from the scalar resume at cycle %d", x.idx, x.te, r, s.Cycle())
			}
		}
	}
	return len(exits), nil
}
