package montecarlo_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
)

// concentratedEvaluation aims the whole candidate set at the
// neighbourhood of the MPU's critical decision gate, so a large share
// of strikes flips the responding registers and the batched resume's
// divergence fallback is exercised heavily (including successful
// attacks, which can only be produced by diverged lanes).
func concentratedEvaluation(t *testing.T) *core.Evaluation {
	t.Helper()
	fw := framework(t)
	prog, err := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	if err != nil {
		t.Fatal(err)
	}
	cands := fault.ConcentratedCenters(fw.Place, fw.CandidateBlock(1), fw.SecurityTarget(), 0.02)
	attack, err := fault.NewAttack("conc", 50, fault.DefaultRadiation(), cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluationAttack(prog, attack)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestBatchRunParity is the per-sample contract: RunBatch must return
// exactly what the same sequence of RunOnce calls returns — outcome,
// classification, flipped set, and the RTL cycle count — including for
// samples whose lanes diverge behaviorally and fall back to the scalar
// resume.
func TestBatchRunParity(t *testing.T) {
	ev := concentratedEvaluation(t)
	srng := rand.New(rand.NewSource(99))
	samples := make([]fault.Sample, 1500)
	for i := range samples {
		samples[i] = ev.Attack.SampleNominal(srng)
	}

	rngScalar := rand.New(rand.NewSource(17))
	scalar := make([]montecarlo.RunResult, len(samples))
	for i, s := range samples {
		scalar[i] = ev.Engine.RunOnce(rngScalar, s, montecarlo.GateAttack)
	}
	rngBatch := rand.New(rand.NewSource(17))
	batched := ev.Engine.RunBatch(rngBatch, samples, montecarlo.GateAttack)

	rtl, diverged := 0, 0
	for i := range samples {
		sr, br := scalar[i], batched[i]
		if sr.Success != br.Success || sr.Class != br.Class || sr.Path != br.Path ||
			sr.ResumeCycles != br.ResumeCycles {
			t.Fatalf("sample %d (%+v): scalar %+v, batched %+v", i, samples[i], sr, br)
		}
		if len(sr.Flipped) != len(br.Flipped) {
			t.Fatalf("sample %d: flipped %v vs %v", i, sr.Flipped, br.Flipped)
		}
		for j := range sr.Flipped {
			if sr.Flipped[j] != br.Flipped[j] {
				t.Fatalf("sample %d: flipped %v vs %v", i, sr.Flipped, br.Flipped)
			}
		}
		if sr.Path == montecarlo.PathRTL {
			rtl++
			if sr.Success {
				diverged++
			}
		}
	}
	// The contract is only meaningful if the batch actually carried RTL
	// resumes, and successful RTL outcomes prove the divergence
	// fallback ran (a lane on the golden trajectory always fails).
	if rtl == 0 {
		t.Fatal("no PathRTL samples — the batched resume was never exercised")
	}
	if diverged == 0 {
		t.Fatal("no successful RTL samples — the divergence fallback was never exercised")
	}
	t.Logf("%d RTL resumes, %d successful (diverged) lanes", rtl, diverged)
}

// compareCampaigns asserts two campaigns are bit-identical across every
// aggregate the scalar/batched equivalence tests check.
func compareCampaigns(t *testing.T, label string, got, want *montecarlo.Campaign) {
	t.Helper()
	if got.Est.Estimate() != want.Est.Estimate() {
		t.Errorf("%s: SSF %g != %g", label, got.Est.Estimate(), want.Est.Estimate())
	}
	if got.Successes != want.Successes {
		t.Errorf("%s: successes %d != %d", label, got.Successes, want.Successes)
	}
	if got.ClassCounts != want.ClassCounts {
		t.Errorf("%s: class counts %v != %v", label, got.ClassCounts, want.ClassCounts)
	}
	if got.PathCounts != want.PathCounts {
		t.Errorf("%s: path counts %v != %v", label, got.PathCounts, want.PathCounts)
	}
	if got.RTLCycles != want.RTLCycles {
		t.Errorf("%s: RTL cycles %d != %d", label, got.RTLCycles, want.RTLCycles)
	}
	if len(got.Convergence) != len(want.Convergence) {
		t.Fatalf("%s: convergence length %d != %d", label, len(got.Convergence), len(want.Convergence))
	}
	for i := range want.Convergence {
		if got.Convergence[i] != want.Convergence[i] {
			t.Fatalf("%s: convergence[%d] %g != %g", label, i, got.Convergence[i], want.Convergence[i])
		}
	}
	for r, v := range want.RegContribution {
		if got.RegContribution[r] != v {
			t.Errorf("%s: reg %d contribution %g != %g", label, r, got.RegContribution[r], v)
		}
	}
	if len(got.RegContribution) != len(want.RegContribution) {
		t.Errorf("%s: reg contributions %d != %d", label, len(got.RegContribution), len(want.RegContribution))
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Errorf("%s: patterns %d != %d", label, len(got.Patterns), len(want.Patterns))
	}
}

// TestBatchCampaignEquivalence is the acceptance criterion: fixed-seed
// campaigns over the batched and scalar paths must be bit-identical —
// SSF, per-sample convergence trace, success/class/path counts,
// register attribution, patterns, and even the total RTL cycle count.
func TestBatchCampaignEquivalence(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{
		Samples: 3000, Seed: 21,
		TrackConvergence: true, TrackPatterns: true,
	}
	scalar, err := ev.Engine.RunCampaignScalar(sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 3000 samples fill one DefaultBatchWindow and part of a second.
	batched, err := ev.Engine.RunCampaign(context.Background(), sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "batched", batched, scalar)
	if batched.PathCounts[montecarlo.PathRTL] == 0 {
		t.Error("campaign exercised no RTL resumes — equivalence is vacuous")
	}
}

// TestBatchCampaignForcedDivergence repeats the campaign equivalence
// check under the concentrated attack, where diverged lanes (including
// successful attacks) dominate the RTL traffic.
func TestBatchCampaignForcedDivergence(t *testing.T) {
	ev := concentratedEvaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 2000, Seed: 4, TrackConvergence: true}
	scalar, err := ev.Engine.RunCampaignScalar(ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaigns(t, "concentrated", batched, scalar)
	if scalar.Successes == 0 {
		t.Error("concentrated campaign produced no successes — divergence not forced")
	}
}

// TestBatchRegisterAttackEquivalence checks the direct-SEU mode, whose
// injection bypasses the timed gate simulation entirely.
func TestBatchRegisterAttackEquivalence(t *testing.T) {
	ev := evaluation(t)
	opts := montecarlo.CampaignOptions{Samples: 1500, Seed: 9, Mode: montecarlo.RegisterAttack}
	scalar, err := ev.Engine.RunCampaignScalar(ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Est.Estimate() != scalar.Est.Estimate() || batched.Successes != scalar.Successes ||
		batched.ClassCounts != scalar.ClassCounts || batched.PathCounts != scalar.PathCounts ||
		batched.RTLCycles != scalar.RTLCycles {
		t.Errorf("register-attack campaign mismatch: batched %g/%d, scalar %g/%d",
			batched.Est.Estimate(), batched.Successes, scalar.Est.Estimate(), scalar.Successes)
	}
}

// TestBatchMultiCycleFallsBackToScalar: multi-cycle disturbances cannot
// use the cached-window fast path; the batched campaign must route them
// through the scalar RunOnce and still match exactly.
func TestBatchMultiCycleFallsBackToScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fw := framework(t)
	prog, _ := fw.BenchmarkProgram(core.BenchmarkIllegalWrite)
	tech := fault.DefaultRadiation()
	tech.ImpactCycles = 3
	attack, err := fault.NewAttack("multi", 50, tech, fw.CandidateBlock(0.125), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fw.NewEvaluationAttack(prog, attack)
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: 1200, Seed: 5}
	scalar, err := ev.Engine.RunCampaignScalar(ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ev.Engine.RunCampaign(context.Background(), ev.RandomSampler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Est.Estimate() != scalar.Est.Estimate() || batched.Successes != scalar.Successes ||
		batched.ClassCounts != scalar.ClassCounts || batched.PathCounts != scalar.PathCounts ||
		batched.RTLCycles != scalar.RTLCycles {
		t.Errorf("multi-cycle campaign mismatch: batched %g/%d, scalar %g/%d",
			batched.Est.Estimate(), batched.Successes, scalar.Est.Estimate(), scalar.Successes)
	}
}

// TestBatchParallelAndAdaptive: the orchestrator's shards are batched
// RunCampaign shards, so a RunRounds result equals the scalar oracle
// run shard by shard — same split, shard seeds
// Seed*1000003 + round*engines + shard — and merged in order. Covered
// for a fixed-size pool run (one round over three engines) and a
// one-engine run of several rounds ending on a partial one.
func TestBatchParallelAndAdaptive(t *testing.T) {
	ev := evaluation(t)
	engines, err := ev.CloneEngines(3)
	if err != nil {
		t.Fatal(err)
	}
	// scalarRounds merges the scalar oracle campaigns of the given
	// rounds, each a list of per-engine shard sizes.
	scalarRounds := func(seed int64, rounds [][]int) *montecarlo.Campaign {
		var total *montecarlo.Campaign
		for r, shards := range rounds {
			for i, n := range shards {
				c, err := engines[i].RunCampaignScalar(ev.RandomSampler(), montecarlo.CampaignOptions{
					Samples: n, Seed: seed*1000003 + int64(r*len(shards)+i),
				})
				if err != nil {
					t.Fatal(err)
				}
				if total == nil {
					total = c
				} else if err := total.Merge(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		return total
	}
	same := func(label string, got, want *montecarlo.Campaign) {
		t.Helper()
		if got.Est.State() != want.Est.State() || got.Successes != want.Successes ||
			got.ClassCounts != want.ClassCounts || got.PathCounts != want.PathCounts ||
			got.RTLCycles != want.RTLCycles {
			t.Errorf("%s mismatch: batched %g/%d, scalar %g/%d",
				label, got.Est.Estimate(), got.Successes, want.Est.Estimate(), want.Successes)
		}
	}

	pool := &core.EnginePool{Evaluation: ev, Engines: engines}
	batchedP, err := pool.Run(context.Background(), ev.RandomSampler(), montecarlo.CampaignOptions{Samples: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	same("pool", batchedP, scalarRounds(11, [][]int{{1000, 1000, 1000}}))

	aopts := montecarlo.AdaptiveOptions{Seed: 13, MinSamples: 1800, MaxSamples: 1800, CheckEvery: 500}
	batchedA, err := montecarlo.RunRounds(context.Background(), engines[:1], ev.RandomSampler(), aopts)
	if err != nil {
		t.Fatal(err)
	}
	same("rounds", batchedA, scalarRounds(13, [][]int{{500}, {500}, {500}, {300}}))
}

// TestBatchHardenedEquivalence checks the batched loop stays bit-identical
// to the scalar oracle with partial hardening: every hardened flip
// draws from the campaign rng, so a strike the batched path skips (by
// the latch bound) must not shift those draws. Covered for importance
// sampling under the default attack and for the concentrated attack,
// where most strikes latch.
func TestBatchHardenedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   *core.Evaluation
	}{
		{"default", evaluation(t)},
		{"concentrated", concentratedEvaluation(t)},
	} {
		eng := tc.ev.Engine
		hardened := map[netlist.NodeID]float64{}
		for i, r := range eng.SoC.MPU.Netlist.Regs() {
			if i%2 == 0 {
				hardened[r] = 2
			}
		}
		eng.Hardened = hardened
		sampler, err := tc.ev.ImportanceSampler()
		if err != nil {
			t.Fatal(err)
		}
		opts := montecarlo.CampaignOptions{Samples: 3000, Seed: 8, TrackConvergence: true}
		scalar, err := eng.RunCampaignScalar(sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := eng.RunCampaign(context.Background(), sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareCampaigns(t, tc.name, batched, scalar)
		if scalar.ClassCounts[montecarlo.Masked] == opts.Samples {
			t.Errorf("%s: every sample masked — no hardening draw was exercised", tc.name)
		}
	}
}

// TestLatchBoundPruneRate guards the batched path's latch bound on the
// bundled MPU: of 10k fixed-seed importance-sampler strikes under the
// default attack, it must reject at least 55% (it rejects about 64%
// here) — a bound weakened towards "always may latch" would pass
// every bit-identity suite — and none it rejects may latch under a full
// timed sweep.
func TestLatchBoundPruneRate(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	strikes, rejected, unsound := ev.Engine.LatchBoundRejections(sampler, 10000, 1)
	t.Logf("%d strikes, %d rejected (%.1f%%)", strikes, rejected, 100*float64(rejected)/float64(strikes))
	if unsound > 0 {
		t.Fatalf("%d rejected strikes latched under InjectBits", unsound)
	}
	if strikes < 5000 || float64(rejected) < 0.55*float64(strikes) {
		t.Fatalf("bound rejected %d of %d strikes, want at least 55%%", rejected, strikes)
	}
}

// TestDivergedLaneReplay checks the batched resume's diverged lanes
// against the exact scalar fallback: after a RunBatch, the scalar resume
// is re-run from every diverged lane's divergence cycle and must give
// the lane's (ResumeCycles, Success). No campaign reaches the fallback
// inside the batched resume often enough to test it there. Covered for
// register attacks with the random sampler and for the concentrated gate
// attack.
func TestDivergedLaneReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   *core.Evaluation
		mode montecarlo.Mode
	}{
		{"register", evaluation(t), montecarlo.RegisterAttack},
		{"concentrated", concentratedEvaluation(t), montecarlo.GateAttack},
	} {
		sampler := tc.ev.RandomSampler()
		srng := rand.New(rand.NewSource(31))
		samples := make([]fault.Sample, 3000)
		for i := range samples {
			samples[i], _ = sampler.Draw(srng)
		}
		eng := tc.ev.Engine
		eng.RecordLaneExits()
		results := eng.RunBatch(rand.New(rand.NewSource(5)), samples, tc.mode)
		n, err := eng.ReplayDivergedLanes(results)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n == 0 {
			t.Fatalf("%s: no lane diverged — the per-lane systems were never exercised", tc.name)
		}
		t.Logf("%s: %d diverged lanes replayed", tc.name, n)
	}
}

// TestBatchDivergedLaneCut covers the convergence cut of diverged lanes:
// a fixed-seed importance campaign in which at least one lane whose
// responses left the golden trace later comes back to the golden state
// and retires through the cut must stay bit-identical to the scalar
// oracle — and so must the same campaign with the cut disabled.
func TestBatchDivergedLaneCut(t *testing.T) {
	ev := evaluation(t)
	sampler, err := ev.ImportanceSampler()
	if err != nil {
		t.Fatal(err)
	}
	opts := montecarlo.CampaignOptions{Samples: 5000, Seed: 2, TrackConvergence: true}
	for _, disable := range []bool{false, true} {
		eng := ev.Engine
		eng.DisableConvergenceCut = disable
		scalar, err := eng.RunCampaignScalar(sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.RecordLaneExits()
		batched, err := eng.RunCampaign(context.Background(), sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("cut disabled %v", disable)
		compareCampaigns(t, label, batched, scalar)
		diverged, cut := eng.LaneExits()
		t.Logf("%s: %d diverged lanes, %d retired by the cut", label, diverged, cut)
		if want := !disable; (cut > 0) != want {
			t.Errorf("%s: %d diverged lanes retired by the cut", label, cut)
		}
	}
}
