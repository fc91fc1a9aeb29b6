package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/montecarlo"
	"repro/internal/server"
	"repro/internal/stats"
)

const (
	// fixedSamples is the size of one fixed-workload campaign.
	fixedSamples = 100000
	// seedsPerRun is how many campaign seeds a fixed-workload run
	// derives from its seed; the timed loop cycles over them, so every
	// seed after the first pass is a repeat that must match exactly.
	seedsPerRun = 4
	// jobEpsilon and jobRisk are the adaptive jobs' stopping rule:
	// Pr[|estimate - SSF| >= jobEpsilon] <= jobRisk.
	jobEpsilon = 1e-4
	jobRisk    = 0.05
	// minJobs is how many timed jobs every service run completes; the
	// deterministic service metrics are medians over exactly these.
	minJobs = 12
)

// targetHalfWidth is the 95% CI half-width at which the jobs' stopping
// rule holds: estimator variance <= risk * eps^2.
var targetHalfWidth = stats.Z95 * jobEpsilon * math.Sqrt(jobRisk)

// campaignSeed derives the k-th campaign (or job) seed of a run.
func campaignSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// runTimed sets the workload up, measures it for the given time, and
// fills the end-to-end metrics.
func runTimed(w workload, seed int64, seconds int, storeRoot string, c *checks, m metrics) error {
	fx, setup, err := setupMedian(w, storeRoot)
	if err != nil {
		return err
	}
	m.set("setup_s", "s", setup.Seconds())
	budget := time.Duration(seconds) * time.Second
	mem := startMemProbe()
	if w.service {
		err = runServiceTimed(fx, seed, budget, mem, c, m)
	} else {
		runFixedTimed(fx, seed, budget, mem, c, m)
	}
	mem.close()
	c.op(fx.close(), "stop service")
	return err
}

// runFixedTimed runs fixed-size campaigns on one engine, cycling over
// the run's seeds, until the budget is spent and every seed ran once.
//
// The statistical metrics come from the untimed default-seed campaign,
// whose outcome expected.json records: they are deterministic, equal on
// every run of a commit, and move only when the estimator does.
func runFixedTimed(fx *fixture, seed int64, budget time.Duration, mem *memProbe, c *checks, m metrics) {
	ctx := context.Background()
	warm, err := fx.ev.EvaluateSSF(ctx, fx.sampler, campaignOptions(fx.w, fixedSamples, defaultSeed))
	if !c.op(err, "default-seed campaign") {
		return
	}
	checkExpected(c, fx.w, outcomeOf(warm))
	mem.window()

	refs := make([]outcome, seedsPerRun)
	var secs, peaks []float64
	start := time.Now()
	for i := 0; i < seedsPerRun || time.Since(start) < budget; i++ {
		k := i % seedsPerRun
		opts := campaignOptions(fx.w, fixedSamples, campaignSeed(seed, k))
		t := time.Now()
		camp, err := fx.ev.EvaluateSSF(ctx, fx.sampler, opts)
		d := time.Since(t)
		peaks = append(peaks, mem.window())
		if !c.op(err, fmt.Sprintf("campaign seed %d", opts.Seed)) {
			continue
		}
		secs = append(secs, d.Seconds())
		if i < seedsPerRun {
			refs[k] = outcomeOf(camp)
			continue
		}
		c.check(outcomeOf(camp) == refs[k], "campaign seed %d did not repeat: %+v then %+v", opts.Seed, refs[k], outcomeOf(camp))
	}
	if len(secs) == 0 {
		return
	}
	rate := fixedSamples / median(secs)
	ci := warm.CIHalfWidth()
	toCI := fixedSamples * (ci / targetHalfWidth) * (ci / targetHalfWidth)
	m.set("samples_per_s", "1/s", rate)
	m.set("ci_half_width", "ssf", ci)
	m.set("samples_to_ci", "count", toCI)
	m.set("time_to_ci_s", "s", toCI/rate)
	m.set("peak_rss_mb", "MB", median(peaks))
	fmt.Fprintf(os.Stderr, "ssfbench %s: %d campaigns of %d samples over %d seeds\n", fx.w.name, len(secs), fixedSamples, seedsPerRun)
}

// jobRequest is the service workload's job: stratified sampler,
// lane-batched, a fixed epsilon/risk target, defaults otherwise.
func jobRequest(seed int64) server.JobRequest {
	return server.JobRequest{Epsilon: jobEpsilon, Risk: jobRisk, Sampler: "stratified", Seed: seed, Batch: true}
}

// adaptiveOptions are the options the service runs jobRequest(seed)
// with, for calling EnginePool.RunAdaptive directly.
func adaptiveOptions(seed int64) montecarlo.AdaptiveOptions {
	return montecarlo.AdaptiveOptions{
		Mode:       montecarlo.GateAttack,
		Seed:       seed,
		Epsilon:    jobEpsilon,
		Risk:       jobRisk,
		MinSamples: 2000,
		MaxSamples: 1 << 20,
		CheckEvery: 500,
		Batch:      true,
	}
}

// runServiceTimed submits adaptive jobs one after another from one
// closed-loop client until the budget is spent and minJobs completed.
func runServiceTimed(fx *fixture, seed int64, budget time.Duration, mem *memProbe, c *checks, m metrics) error {
	cl := newClient(fx)
	defer cl.close()
	// Untimed warm-up: the default-seed job, checked against the
	// recorded outcome and against a direct pool run.
	if warm := cl.run(jobRequest(campaignSeed(defaultSeed, 0)), false, c); warm != nil {
		got := outcomeOfJob(warm.status.Result)
		checkExpected(c, fx.w, got)
		checkDirect(fx, campaignSeed(defaultSeed, 0), got, c)
	}
	mem.window()

	var jobs []*jobRun
	var peaks []float64
	start := time.Now()
	for k := 0; k < minJobs || time.Since(start) < budget; k++ {
		jr := cl.run(jobRequest(campaignSeed(seed, k)), false, c)
		peaks = append(peaks, mem.window())
		if jr != nil {
			jobs = append(jobs, jr)
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed")
	}
	var latency, rate, samples, ci []float64
	for i, jr := range jobs {
		latency = append(latency, jr.latency.Seconds())
		rate = append(rate, float64(jr.status.Result.Samples)/jr.latency.Seconds())
		if i < minJobs {
			samples = append(samples, float64(jr.status.Result.Samples))
			ci = append(ci, jr.status.Result.CIHalfWidth)
		}
	}
	m.set("samples_per_s", "1/s", median(rate))
	m.set("time_to_ci_s", "s", median(latency))
	m.set("samples_to_ci", "count", median(samples))
	m.set("ci_half_width", "ssf", median(ci))
	m.set("peak_rss_mb", "MB", median(peaks))
	fmt.Fprintf(os.Stderr, "ssfbench %s: %d jobs (time_to_ci_s over all, samples_to_ci and ci_half_width over the first %d)\n",
		fx.w.name, len(jobs), minJobs)
	return nil
}

// checkDirect runs the job's options on the pool directly and requires
// the served result to equal it: the service adds nothing to the
// estimate. The service must be idle.
func checkDirect(fx *fixture, seed int64, served outcome, c *checks) {
	camp, err := fx.pool.RunAdaptive(context.Background(), fx.sampler, adaptiveOptions(seed))
	if c.op(err, "direct adaptive run") {
		c.check(outcomeOf(camp) == served, "job seed %d served %+v, direct pool run %+v", seed, served, outcomeOf(camp))
	}
}
