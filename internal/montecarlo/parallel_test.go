package montecarlo_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
)

func TestCampaignMerge(t *testing.T) {
	ev := evaluation(t)
	o1 := montecarlo.CampaignOptions{Samples: 300, Seed: 1, TrackPatterns: true}
	o2 := montecarlo.CampaignOptions{Samples: 200, Seed: 2, TrackPatterns: true}
	c1, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), o1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), o2)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a single estimator over the union is what Merge must
	// reproduce.
	wantMean := (c1.SSF()*300 + c2.SSF()*200) / 500
	succ := c1.Successes + c2.Successes
	classes := [3]int{}
	for i := range classes {
		classes[i] = c1.ClassCounts[i] + c2.ClassCounts[i]
	}
	c1.Merge(c2)
	if c1.Est.N() != 500 {
		t.Fatalf("merged N = %d", c1.Est.N())
	}
	if math.Abs(c1.SSF()-wantMean) > 1e-12 {
		t.Errorf("merged SSF %v, want %v", c1.SSF(), wantMean)
	}
	if c1.Successes != succ || c1.ClassCounts != classes {
		t.Error("counters not merged")
	}
	if c1.Options.Samples != 500 {
		t.Errorf("merged sample count %d", c1.Options.Samples)
	}
}

func TestParallelCampaignMatchesSequentialStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: 3000, Seed: 5}
	pool := &core.EnginePool{Evaluation: ev, Engines: engines}
	par, err := pool.Run(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Est.N() != 3000 {
		t.Fatalf("parallel N = %d", par.Est.N())
	}
	// Reproducibility: same engines, same seed -> identical result.
	par2, err := pool.Run(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.SSF() != par2.SSF() || par.Successes != par2.Successes {
		t.Error("parallel campaign not reproducible")
	}
	// Statistical agreement with a sequential campaign of the same
	// size (different streams, same distribution): class fractions
	// within a loose tolerance.
	seq, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fracPar := float64(par.ClassCounts[montecarlo.Masked]) / 3000
	fracSeq := float64(seq.ClassCounts[montecarlo.Masked]) / 3000
	if math.Abs(fracPar-fracSeq) > 0.05 {
		t.Errorf("masked fraction drifted: %v vs %v", fracPar, fracSeq)
	}
}

func TestParallelValidation(t *testing.T) {
	ev := evaluation(t)
	if _, err := montecarlo.RunRounds(context.Background(), nil, ev.RandomSampler(),
		montecarlo.AdaptiveOptions{MinSamples: 10, MaxSamples: 10}); err == nil {
		t.Error("no engines accepted")
	}
	engines, err := ev.CloneEngines(1)
	if err != nil {
		t.Fatal(err)
	}
	pool := &core.EnginePool{Evaluation: ev, Engines: engines}
	if _, err := pool.Run(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := pool.Run(context.Background(), ev.RandomSampler(),
		montecarlo.CampaignOptions{Samples: 10, TrackConvergence: true}); err == nil {
		t.Error("convergence tracking in parallel accepted")
	}
}

func TestParallelUnevenSplit(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples over 3 engines: 34+33+33.
	pool := &core.EnginePool{Evaluation: ev, Engines: engines}
	c, err := pool.Run(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Est.N() != 100 {
		t.Fatalf("N = %d", c.Est.N())
	}
}

func TestRunAdaptiveStops(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.DefaultAdaptive(0.01)
	opts.MinSamples = 500
	opts.CheckEvery = 250
	opts.MaxSamples = 20000
	c, err := montecarlo.RunRounds(context.Background(), []*montecarlo.Engine{ev.Engine}, ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Est.N() < opts.MinSamples {
		t.Fatalf("stopped at %d < MinSamples", c.Est.N())
	}
	if c.Est.N() > opts.MaxSamples {
		t.Fatalf("exceeded MaxSamples: %d", c.Est.N())
	}
	// The criterion must hold at the stopping point (unless the cap
	// hit first).
	if c.Est.N() < opts.MaxSamples && c.Est.LLNBound(opts.Epsilon) > opts.Risk {
		t.Errorf("stopped with bound %v > risk %v", c.Est.LLNBound(opts.Epsilon), opts.Risk)
	}
}

func TestRunAdaptiveTighterCriterionNeedsMore(t *testing.T) {
	ev := evaluation(t)
	loose := montecarlo.DefaultAdaptive(0.02)
	loose.MinSamples, loose.CheckEvery, loose.MaxSamples = 200, 200, 30000
	tight := loose
	tight.Epsilon = 0.002
	engines := []*montecarlo.Engine{ev.Engine}
	cl, err := montecarlo.RunRounds(context.Background(), engines, ev.RandomSampler(), loose)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := montecarlo.RunRounds(context.Background(), engines, ev.RandomSampler(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Est.N() < cl.Est.N() {
		t.Errorf("tighter epsilon used fewer samples: %d vs %d", ct.Est.N(), cl.Est.N())
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	ev := evaluation(t)
	engines := []*montecarlo.Engine{ev.Engine}
	bad := montecarlo.DefaultAdaptive(0)
	if _, err := montecarlo.RunRounds(context.Background(), engines, ev.RandomSampler(), bad); err == nil {
		t.Error("epsilon 0 accepted")
	}
	bad = montecarlo.DefaultAdaptive(0.01)
	bad.Risk = 2
	if _, err := montecarlo.RunRounds(context.Background(), engines, ev.RandomSampler(), bad); err == nil {
		t.Error("risk 2 accepted")
	}
	if _, err := montecarlo.RunRounds(context.Background(), engines, ev.RandomSampler(), montecarlo.AdaptiveOptions{}); err == nil {
		t.Error("zero options accepted")
	}
}

func TestCloneEnginesIndependent(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(2)
	if err != nil {
		t.Fatal(err)
	}
	if engines[0].SoC == engines[1].SoC || engines[0].SoC == ev.Engine.SoC {
		t.Error("engines share SoC state")
	}
	g0, g1 := engines[0].Golden(), engines[1].Golden()
	if g0.TargetCycle != g1.TargetCycle || g0.TargetCycle != ev.Golden.TargetCycle {
		t.Error("clone golden runs diverge")
	}
	_ = core.DefaultAttackSpec()
}
