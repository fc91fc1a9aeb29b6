package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
)

func testEvaluation(t *testing.T) *core.Evaluation {
	t.Helper()
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// interfaces reports which optional sampler interfaces s implements.
func interfaces(s sampling.Sampler) [3]bool {
	_, fk := s.(sampling.Forker)
	_, st := s.(sampling.Stratal)
	_, ad := s.(sampling.Adaptive)
	return [3]bool{fk, st, ad}
}

func TestTraceSamplerKeepsInterfaces(t *testing.T) {
	ev := testEvaluation(t)
	im, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ev.StratifiedSampler()
	if err != nil {
		t.Fatal(err)
	}
	sobol, err := ev.SobolSampler()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sampling.Sampler{ev.RandomSampler(), im, st, st.(sampling.Forker).Fork(3), sobol} {
		traced := traceSampler(s, &drawClock{})
		if got, want := interfaces(traced), interfaces(s); got != want {
			t.Errorf("%s: traced sampler implements (Forker, Stratal, Adaptive) = %v, inner %v", s.Name(), got, want)
		}
		if f, ok := traced.(sampling.Forker); ok {
			if got, want := interfaces(f.Fork(5)), interfaces(s.(sampling.Forker).Fork(5)); got != want {
				t.Errorf("%s: traced fork implements %v, inner fork %v", s.Name(), got, want)
			}
		}
	}
}

// TestTracedCampaignsBitIdentical fails if tracing a sampler changes any
// campaign result, on every workload's sampler and on an adaptive
// two-engine run that forks, stratifies and re-tunes the proposal.
func TestTracedCampaignsBitIdentical(t *testing.T) {
	ev := testEvaluation(t)
	ctx := context.Background()
	for _, w := range workloads {
		sp, err := buildSampler(ev, w.sampler)
		if err != nil {
			t.Fatal(err)
		}
		opts := campaignOptions(w, 3000, 11)
		plain, err := ev.EvaluateSSF(ctx, sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		clk := &drawClock{}
		traced, err := ev.EvaluateSSF(ctx, traceSampler(sp, clk), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outcomeOf(traced), outcomeOf(plain); got != want {
			t.Errorf("%s: traced campaign %+v, untraced %+v", w.name, got, want)
		}
		if n := clk.calls.Load(); n != int64(opts.Samples) {
			t.Errorf("%s: traced %d draws, campaign drew %d", w.name, n, opts.Samples)
		}
	}

	pool, err := ev.NewEnginePool(2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ev.StratifiedSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.AdaptiveOptions{
		Seed: 4, Epsilon: 1e-4, Risk: 0.05, MinSamples: 2000, MaxSamples: 8000,
		CheckEvery: 500, Batch: true, AdaptProposal: true,
	}
	plain, err := pool.RunAdaptive(ctx, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := pool.RunAdaptive(ctx, traceSampler(st, &drawClock{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outcomeOf(traced), outcomeOf(plain); got != want {
		t.Errorf("adaptive stratified: traced %+v, untraced %+v", got, want)
	}
}
