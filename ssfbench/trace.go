package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/placement"
	"repro/internal/precharac"
	"repro/internal/sampling"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// --- Traced sampler -------------------------------------------------------

// drawClock accumulates calls to and wall time in Sampler.Draw over
// every stream of a traced sampler; parallel shards draw concurrently.
type drawClock struct{ calls, ns atomic.Int64 }

// tracedSampler times Draw and forwards everything else.
type tracedSampler struct {
	inner sampling.Sampler
	clk   *drawClock
}

func (t *tracedSampler) Name() string           { return t.inner.Name() }
func (t *tracedSampler) TimingProbs() []float64 { return t.inner.TimingProbs() }

func (t *tracedSampler) Draw(rng *rand.Rand) (fault.Sample, float64) {
	start := time.Now()
	s, w := t.inner.Draw(rng)
	t.clk.ns.Add(int64(time.Since(start)))
	t.clk.calls.Add(1)
	return s, w
}

// forkFwd forwards sampling.Forker, keeping the forked stream traced.
type forkFwd struct{ t *tracedSampler }

func (f forkFwd) Fork(seed int64) sampling.Sampler {
	return traceSampler(f.t.inner.(sampling.Forker).Fork(seed), f.t.clk)
}

// stratalFwd forwards sampling.Stratal.
type stratalFwd struct{ t *tracedSampler }

func (f stratalFwd) st() sampling.Stratal         { return f.t.inner.(sampling.Stratal) }
func (f stratalFwd) NumStrata() int               { return f.st().NumStrata() }
func (f stratalFwd) StratumProb(k int) float64    { return f.st().StratumProb(k) }
func (f stratalFwd) StratumOf(s fault.Sample) int { return f.st().StratumOf(s) }
func (f stratalFwd) ConditionalWeight(s fault.Sample, w float64) float64 {
	return f.st().ConditionalWeight(s, w)
}

// adaptFwd forwards sampling.Adaptive, keeping the re-tuned sampler
// traced.
type adaptFwd struct{ t *tracedSampler }

func (f adaptFwd) Adapt(state sampling.AdaptState) (sampling.Sampler, error) {
	s, err := f.t.inner.(sampling.Adaptive).Adapt(state)
	if err != nil {
		return nil, err
	}
	return traceSampler(s, f.t.clk), nil
}

// traceSampler wraps s so that Draw is timed into clk. The wrapper
// implements exactly the optional interfaces (Forker, Stratal,
// Adaptive) that s implements, because campaigns change behaviour on
// them: a traced campaign stays bit-identical to an untraced one.
func traceSampler(s sampling.Sampler, clk *drawClock) sampling.Sampler {
	t := &tracedSampler{inner: s, clk: clk}
	_, fk := s.(sampling.Forker)
	_, st := s.(sampling.Stratal)
	_, ad := s.(sampling.Adaptive)
	f, r, a := forkFwd{t}, stratalFwd{t}, adaptFwd{t}
	switch {
	case fk && st && ad:
		return struct {
			*tracedSampler
			forkFwd
			stratalFwd
			adaptFwd
		}{t, f, r, a}
	case fk && st:
		return struct {
			*tracedSampler
			forkFwd
			stratalFwd
		}{t, f, r}
	case fk && ad:
		return struct {
			*tracedSampler
			forkFwd
			adaptFwd
		}{t, f, a}
	case st && ad:
		return struct {
			*tracedSampler
			stratalFwd
			adaptFwd
		}{t, r, a}
	case fk:
		return struct {
			*tracedSampler
			forkFwd
		}{t, f}
	case st:
		return struct {
			*tracedSampler
			stratalFwd
		}{t, r}
	case ad:
		return struct {
			*tracedSampler
			adaptFwd
		}{t, a}
	default:
		return t
	}
}

// --- Spans ----------------------------------------------------------------

// span accumulates calls to one public function: count, wall time, and
// a per-call quantity (gates returned, registers reached, ...).
type span struct {
	n   int
	ns  int64
	sum float64
}

func (s *span) add(start time.Time, qty float64) {
	s.ns += int64(time.Since(start))
	s.n++
	s.sum += qty
}

// busy returns the span's wall time less the timer cost each call
// recorded (timerNs per call), floored at zero.
func (s span) busy(timerNs float64) float64 {
	return math.Max(0, float64(s.ns)-timerNs*float64(s.n))
}

func (s span) perCall(timerNs float64) float64 {
	if s.n == 0 {
		return 0
	}
	return s.busy(timerNs) / float64(s.n)
}

func (s span) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// measureTimerNs returns what a span records around no work at all: the
// cost of the two clock reads, which every span's figure is corrected
// by.
func measureTimerNs() float64 {
	const batch, reps = 100000, 5
	var per []float64
	for i := 0; i < reps; i++ {
		var s span
		for j := 0; j < batch; j++ {
			s.add(time.Now(), 0)
		}
		per = append(per, float64(s.ns)/batch)
	}
	return median(per)
}

// layerSpans are the spans of one replay pass over a campaign's samples.
type layerSpans struct {
	spot, strike, outcome       span
	inject                      span // sum: injections that latched a register
	activeGates, reachedRegs    float64
	restore, step, hash         span
	runOnce                     [4]span // by montecarlo.EvalPath
	flipMismatch                int
	resumeMismatch, outcomeMiss int
}

// --- Layer replay ---------------------------------------------------------

// replay calls each layer's public functions from outside, on its own
// SoC, spot index and timed simulator, for the samples of a campaign
// whose scalar results are known.
type replay struct {
	fx     *fixture
	soc    *soc.SoC
	tsim   *timingsim.Simulator
	spots  *placement.SpotIndex
	lo     int
	comb   [][]uint64        // golden post-Eval node values during cycle lo+i
	snaps  []*soc.Checkpoint // golden state at the start of cycle lo+i
	widths []float64
}

func newReplay(fx *fixture) (*replay, error) {
	ev := fx.ev
	g := ev.Golden
	s, err := soc.WithMPU(fx.fw.Opts.SoC, ev.Program, fx.fw.MPU)
	if err != nil {
		return nil, err
	}
	r := &replay{fx: fx, soc: s, tsim: ev.Engine.Timing.Fork(), spots: fx.fw.Place.NewSpotIndex()}
	r.lo = g.TargetCycle - ev.Attack.TRange
	if r.lo < 0 {
		r.lo = 0
	}
	idx := sort.Search(len(g.Checkpoints), func(i int) bool { return g.Checkpoints[i].Cycle > r.lo }) - 1
	s.Restore(g.Checkpoints[idx])
	for s.Cycle() < r.lo {
		s.Step()
	}
	nn := fx.fw.MPU.Netlist.NumNodes()
	for c := r.lo; c <= g.TargetCycle; c++ {
		r.snaps = append(r.snaps, s.Snapshot())
		bits := make([]uint64, (nn+63)/64)
		s.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
			for i := 0; i < nn; i++ {
				if values(netlist.NodeID(i)) {
					bits[i>>6] |= 1 << uint(i&63)
				}
			}
			return nil
		})
		r.comb = append(r.comb, bits)
	}
	return r, nil
}

// sample replays one sample through the layers and checks that each
// layer reproduces the scalar result res.
func (r *replay) sample(s fault.Sample, res montecarlo.RunResult, mode montecarlo.Mode, ls *layerSpans) {
	ev := r.fx.ev
	g := ev.Golden
	te := g.TargetCycle - s.T
	var flips []netlist.NodeID
	switch mode {
	case montecarlo.GateAttack:
		t := time.Now()
		gates, dists := r.spots.CombWithin(s.Center, s.Radius)
		ls.spot.add(t, float64(len(gates)))
		if len(gates) == 0 {
			break
		}
		t = time.Now()
		var strike timingsim.Strike
		strike, r.widths = ev.Attack.StrikeFrom(s, gates, dists, r.widths)
		ls.strike.add(t, 0)
		t = time.Now()
		out := r.tsim.InjectBits(r.comb[te-r.lo], strike)
		latched := 0.0
		if len(out.FlippedRegs) > 0 {
			latched = 1
		}
		ls.inject.add(t, latched)
		ls.activeGates += float64(out.ActiveGates)
		ls.reachedRegs += float64(out.ReachedRegs)
		flips = out.FlippedRegs
	case montecarlo.RegisterAttack:
		t := time.Now()
		flips = r.spots.DFFWithin(s.Center, s.Radius)
		ls.spot.add(t, float64(len(flips)))
	}
	if !sameIDs(flips, res.Flipped) {
		ls.flipMismatch++
	}

	switch res.Path {
	case montecarlo.PathAnalytical:
		window := accessWindow(g.Accesses, te, g.MarkedIssue)
		t := time.Now()
		ok := ev.Engine.Analytical.Outcome(g.Policy, ev.Program, window, res.Flipped)
		ls.outcome.add(t, 0)
		if ok != res.Success {
			ls.outcomeMiss++
		}
	case montecarlo.PathRTL:
		t := time.Now()
		r.soc.Restore(r.snaps[te-r.lo])
		ls.restore.add(t, 0)
		t = time.Now()
		r.soc.StepInject(func(func(netlist.NodeID) bool) []netlist.NodeID { return res.Flipped })
		ls.step.add(t, 0)
		cycles, success := r.resume(ls)
		if cycles != res.ResumeCycles || success != res.Success {
			ls.resumeMismatch++
		}
	}
}

// resume is the scalar RTL resume with the golden-hash convergence cut,
// timing each SoC step and state hash.
func (r *replay) resume(ls *layerSpans) (cycles int, success bool) {
	g := r.fx.ev.Golden
	s := r.soc
	start := s.Cycle()
	limit := g.FinalCycle + r.fx.ev.Engine.ResumeMargin
	for !s.Done() && !s.Marked.Resolved && s.Cycle() < limit {
		if c := s.Cycle(); c < len(g.StateHashes) {
			t := time.Now()
			h := s.StateHash()
			ls.hash.add(t, 0)
			if h == g.StateHashes[c] {
				return c - start, false
			}
		}
		t := time.Now()
		s.Step()
		ls.step.add(t, 0)
	}
	return s.Cycle() - start, s.AttackSucceeded()
}

// evalNs times Simulator.Eval on the MPU at the golden target-cycle
// state, in batches so the timer cost is negligible.
func (r *replay) evalNs() float64 {
	r.soc.Restore(r.snaps[len(r.snaps)-1])
	const batch, reps = 2000, 5
	var per []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			r.soc.Sim.Eval()
		}
		per = append(per, float64(time.Since(t))/batch)
	}
	return median(per)
}

// accessWindow returns the golden accesses issued in [from, to).
func accessWindow(acc []soc.AccessEvent, from, to int) []soc.AccessEvent {
	lo := sort.Search(len(acc), func(i int) bool { return acc[i].Cycle >= from })
	hi := sort.Search(len(acc), func(i int) bool { return acc[i].Cycle >= to })
	if hi < lo {
		hi = lo
	}
	return acc[lo:hi]
}

func sameIDs(a, b []netlist.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Traced run -----------------------------------------------------------

// tracePass is the measurements of one pass over the layer campaign.
type tracePass struct {
	untracedNs, tracedNs float64 // campaign wall time
	draw                 span    // Sampler.Draw inside the traced campaign
	evalNs               float64 // Engine.RunBatch over the same samples
	spans                layerSpans
}

// draws replays the campaign's draws: the engines are unhardened, so
// the campaign's rng feeds only the sampler.
func draws(sp sampling.Sampler, seed int64, n int) []fault.Sample {
	if f, ok := sp.(sampling.Forker); ok {
		sp = f.Fork(seed)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]fault.Sample, n)
	for i := range out {
		out[i], _ = sp.Draw(rng)
	}
	return out
}

// tally folds results into campaign-shaped counts.
func tally(results []montecarlo.RunResult) (paths [4]int, successes, rtl int) {
	for _, r := range results {
		paths[r.Path]++
		if r.Success {
			successes++
		}
		rtl += r.ResumeCycles
	}
	return paths, successes, rtl
}

// layerPass runs the layer campaign untraced and traced, then evaluates
// its samples through Engine.RunBatch, scalar Engine.RunOnce, and the
// per-layer replay, checking every path against the campaign.
func layerPass(fx *fixture, rp *replay, seed int64, tracedFirst bool, c *checks, ref **montecarlo.Campaign) (tracePass, bool) {
	ctx := context.Background()
	e := fx.ev.Engine
	opts := campaignOptions(fx.w, fixedSamples, seed)
	var p tracePass

	// The untraced and traced campaigns alternate which runs first, so
	// neither always follows the cache-cold replay of the last pass.
	var plain, traced *montecarlo.Campaign
	var perr, terr error
	clk := &drawClock{}
	untracedRun := func() {
		t := time.Now()
		plain, perr = e.RunCampaign(ctx, fx.sampler, opts)
		p.untracedNs = float64(time.Since(t))
	}
	tracedRun := func() {
		t := time.Now()
		traced, terr = e.RunCampaign(ctx, traceSampler(fx.sampler, clk), opts)
		p.tracedNs = float64(time.Since(t))
	}
	if tracedFirst {
		tracedRun()
		untracedRun()
	} else {
		untracedRun()
		tracedRun()
	}
	if !c.op(perr, "untraced campaign") || !c.op(terr, "traced campaign") {
		return p, false
	}
	p.draw = span{n: int(clk.calls.Load()), ns: clk.ns.Load()}
	want := outcomeOf(plain)
	c.check(outcomeOf(traced) == want, "traced campaign %+v, untraced %+v", outcomeOf(traced), want)
	if *ref == nil {
		*ref = plain
	} else {
		c.check(want == outcomeOf(*ref), "layer campaign seed %d did not repeat", seed)
	}

	samples := draws(fx.sampler, seed, fixedSamples)
	rng := rand.New(rand.NewSource(seed))
	window := montecarlo.DefaultBatchWindow * montecarlo.DefaultLanes / 64
	var batched []montecarlo.RunResult
	t := time.Now()
	for lo := 0; lo < len(samples); lo += window {
		hi := min(lo+window, len(samples))
		batched = append(batched, e.RunBatch(rng, samples[lo:hi], fx.w.mode)...)
	}
	p.evalNs = float64(time.Since(t))

	scalar := make([]montecarlo.RunResult, len(samples))
	for i, s := range samples {
		t := time.Now()
		scalar[i] = e.RunOnce(rng, s, fx.w.mode)
		p.spans.runOnce[scalar[i].Path].add(t, 0)
	}
	for i, s := range samples {
		rp.sample(s, scalar[i], fx.w.mode, &p.spans)
	}

	paths, succ, rtl := tally(scalar)
	c.check(paths == plain.PathCounts && succ == plain.Successes && rtl == plain.RTLCycles,
		"scalar RunOnce replay paths %v successes %d rtl %d, batched campaign %v %d %d",
		paths, succ, rtl, plain.PathCounts, plain.Successes, plain.RTLCycles)
	bp, bs, br := tally(batched)
	c.check(bp == plain.PathCounts && bs == plain.Successes && br == plain.RTLCycles,
		"RunBatch paths %v successes %d rtl %d, campaign %v %d %d", bp, bs, br, plain.PathCounts, plain.Successes, plain.RTLCycles)
	ls := p.spans
	c.check(ls.flipMismatch == 0, "layer replay: %d flip sets differ from RunOnce", ls.flipMismatch)
	c.check(ls.outcomeMiss == 0, "layer replay: %d analytical outcomes differ from RunOnce", ls.outcomeMiss)
	c.check(ls.resumeMismatch == 0, "layer replay: %d RTL resumes differ from RunOnce", ls.resumeMismatch)
	return p, true
}

// serviceTrace holds the orchestration and server figures of the
// service workload.
type serviceTrace struct {
	submitMs, queueMs, runMs, roundMs, recordBytes, rounds []float64
	snapshotNs, mergeNs                                    []float64
}

// traceJobs is how many jobs a traced service run submits.
const traceJobs = 3

// serviceJobs submits traceJobs jobs, sampling each job's on-disk
// record while it runs, and checks every result against a direct
// EnginePool.RunAdaptive that times Campaign.Snapshot and Merge at
// every round.
func serviceJobs(fx *fixture, seed int64, c *checks) serviceTrace {
	var st serviceTrace
	cl := newClient(fx)
	defer cl.close()
	for k := 0; k < traceJobs; k++ {
		jseed := campaignSeed(seed, k)
		jr := cl.run(jobRequest(jseed), true, c)
		if jr == nil {
			continue
		}
		s := jr.status
		st.submitMs = append(st.submitMs, float64(jr.submit)/1e6)
		if s.StartedAt != nil && s.FinishedAt != nil {
			st.queueMs = append(st.queueMs, float64(s.StartedAt.Sub(s.SubmittedAt))/1e6)
			run := float64(s.FinishedAt.Sub(*s.StartedAt)) / 1e6
			st.runMs = append(st.runMs, run)
			if s.Rounds > 0 {
				st.roundMs = append(st.roundMs, run/float64(s.Rounds))
			}
		}
		st.rounds = append(st.rounds, float64(s.Rounds))
		st.recordBytes = append(st.recordBytes, median(jr.recordBytes))

		opts := adaptiveOptions(jseed)
		var prev *montecarlo.Campaign
		var rounds int64
		var mergeErr error
		opts.Checkpoint = func(r int64, total *montecarlo.Campaign) {
			rounds = r
			t := time.Now()
			total.Snapshot()
			st.snapshotNs = append(st.snapshotNs, float64(time.Since(t)))
			if prev != nil {
				t = time.Now()
				if err := prev.Merge(total); err != nil && mergeErr == nil {
					mergeErr = err
				}
				st.mergeNs = append(st.mergeNs, float64(time.Since(t)))
			}
			prev = total.Clone()
		}
		camp, err := fx.pool.RunAdaptive(context.Background(), fx.sampler, opts)
		c.op(mergeErr, "Campaign.Merge of round totals")
		if c.op(err, "direct adaptive run") {
			served := outcomeOfJob(s.Result)
			c.check(outcomeOf(camp) == served, "job seed %d served %+v, direct pool run %+v", jseed, served, outcomeOf(camp))
			c.check(rounds == s.Rounds, "job seed %d: %d rounds served, %d direct", jseed, s.Rounds, rounds)
		}
	}
	return st
}

// runTraced sets the workload up once, timing each set-up step, then
// runs layer passes until the budget is spent (at least one), and for
// the service workload a few jobs, and fills the per-layer metrics.
func runTraced(w workload, seed int64, seconds int, storeRoot string, c *checks, m metrics) error {
	fx, err := newFixture(w, storeRoot)
	if err != nil {
		return err
	}
	defer func() { c.op(fx.close(), "stop service") }()

	synth, err := soc.WithMPU(fx.fw.Opts.SoC, soc.SyntheticProgram(fx.fw.Opts.SoC.DMABase, fx.fw.Opts.SoC.DMALimit), fx.fw.MPU)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := precharac.Characterize(synth, fx.fw.Opts.Precharac); err != nil {
		return fmt.Errorf("precharac.Characterize: %w", err)
	}
	m.set("precharac.characterize_ms", "ms", float64(time.Since(t))/1e6)
	m.set("core.build_ms", "ms", float64(fx.phases.build)/1e6)
	m.set("core.evaluation_ms", "ms", float64(fx.phases.evaluation)/1e6)
	m.set("core.pool_ms", "ms", float64(fx.phases.pool)/1e6)

	// The service jobs and the layer passes share the budget; there is
	// at least one pass.
	start := time.Now()
	var st serviceTrace
	if w.service {
		st = serviceJobs(fx, seed, c)
	}

	rp, err := newReplay(fx)
	if err != nil {
		return err
	}
	// Untimed warm-up of the layer campaign; on the fixed workloads it
	// runs at the default seed and is checked against the recorded
	// outcome.
	warmSeed := campaignSeed(seed, 0)
	if !w.service {
		warmSeed = defaultSeed
	}
	warm, err := fx.ev.EvaluateSSF(context.Background(), fx.sampler, campaignOptions(w, fixedSamples, warmSeed))
	if !c.op(err, "warm-up campaign") {
		return err
	}
	if !w.service {
		checkExpected(c, w, outcomeOf(warm))
	}

	var passes []tracePass
	var ref *montecarlo.Campaign
	budget := time.Duration(seconds) * time.Second
	for len(passes) == 0 || time.Since(start) < budget {
		p, ok := layerPass(fx, rp, campaignSeed(seed, 0), len(passes)%2 == 1, c, &ref)
		if !ok {
			return fmt.Errorf("layer pass failed")
		}
		passes = append(passes, p)
	}
	fmt.Fprintf(os.Stderr, "ssfbench %s: %d traced passes of %d samples\n", w.name, len(passes), fixedSamples)
	setLayerMetrics(m, passes, ref, measureTimerNs())
	m.set("logicsim.eval_ns", "ns", rp.evalNs())
	generated := 0.0
	if fx.ev.Engine.SoC.Sim.Plan().Generated() {
		generated = 1
	}
	m.set("logicsim.generated", "bool", generated)

	m.set("montecarlo.rounds", "count", median(st.rounds))
	m.set("montecarlo.round_ms", "ms", median(st.roundMs))
	m.set("montecarlo.snapshot_ns", "ns", median(st.snapshotNs))
	m.set("montecarlo.merge_ns", "ns", median(st.mergeNs))
	m.set("server.submit_ms", "ms", median(st.submitMs))
	m.set("server.queue_wait_ms", "ms", median(st.queueMs))
	m.set("server.run_ms", "ms", median(st.runMs))
	m.set("server.checkpoint_bytes", "bytes", median(st.recordBytes))
	return nil
}

// setLayerMetrics reduces the passes to per-layer medians. Span figures
// are corrected by the timer cost; busy shares are of the untraced
// campaign's wall time.
func setLayerMetrics(m metrics, passes []tracePass, ref *montecarlo.Campaign, timerNs float64) {
	n := float64(fixedSamples)
	med := func(f func(p tracePass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	perCall := func(name string, sp func(p tracePass) span) {
		m.set(name, "ns", med(func(p tracePass) float64 { return sp(p).perCall(timerNs) }))
	}
	share := func(name string, busy func(p tracePass) float64) {
		m.set(name, "ratio", med(func(p tracePass) float64 { return busy(p) / p.untracedNs }))
	}
	perCall("sampling.draw_ns", func(p tracePass) span { return p.draw })
	perCall("placement.spot_query_ns", func(p tracePass) span { return p.spans.spot })
	m.set("placement.spot_gates_mean", "count", med(func(p tracePass) float64 { return p.spans.spot.mean() }))
	perCall("fault.strike_ns", func(p tracePass) span { return p.spans.strike })
	perCall("timingsim.inject_ns", func(p tracePass) span { return p.spans.inject })
	m.set("timingsim.injections", "count", med(func(p tracePass) float64 { return float64(p.spans.inject.n) }))
	m.set("timingsim.latch_ratio", "ratio", med(func(p tracePass) float64 { return p.spans.inject.mean() }))
	m.set("timingsim.active_gates_mean", "count", med(func(p tracePass) float64 { return perN(p.spans.activeGates, p.spans.inject.n) }))
	m.set("timingsim.reached_regs_mean", "count", med(func(p tracePass) float64 { return perN(p.spans.reachedRegs, p.spans.inject.n) }))
	perCall("analytical.outcome_ns", func(p tracePass) span { return p.spans.outcome })
	perCall("soc.restore_ns", func(p tracePass) span { return p.spans.restore })
	perCall("soc.step_ns", func(p tracePass) span { return p.spans.step })
	perCall("soc.statehash_ns", func(p tracePass) span { return p.spans.hash })

	for path, name := range []string{"masked", "analytical", "pruned", "rtl"} {
		m.set("montecarlo.path_"+name, "count", float64(ref.PathCounts[path]))
		perCall("montecarlo.runonce_ns."+name, func(p tracePass) span { return p.spans.runOnce[path] })
	}
	m.set("montecarlo.rtl_cycles", "count", float64(ref.RTLCycles))
	m.set("montecarlo.eval_ns_per_sample", "ns", med(func(p tracePass) float64 { return p.evalNs / n }))
	m.set("montecarlo.accumulate_ns_per_sample", "ns", med(func(p tracePass) float64 {
		return (p.untracedNs - p.draw.busy(timerNs) - p.evalNs) / n
	}))

	share("sampling.busy_share", func(p tracePass) float64 { return p.draw.busy(timerNs) })
	share("placement.busy_share", func(p tracePass) float64 { return p.spans.spot.busy(timerNs) })
	share("fault.busy_share", func(p tracePass) float64 { return p.spans.strike.busy(timerNs) })
	share("timingsim.busy_share", func(p tracePass) float64 { return p.spans.inject.busy(timerNs) })
	share("analytical.busy_share", func(p tracePass) float64 { return p.spans.outcome.busy(timerNs) })
	share("trace.unaccounted_share", func(p tracePass) float64 {
		s := p.spans
		return p.untracedNs - p.draw.busy(timerNs) - s.spot.busy(timerNs) - s.strike.busy(timerNs) -
			s.inject.busy(timerNs) - s.outcome.busy(timerNs)
	})
	m.set("trace.overhead_samples_per_s", "1/s", med(func(p tracePass) float64 { return n/(p.tracedNs/1e9) - n/(p.untracedNs/1e9) }))
	m.set("trace.untraced_samples_per_s", "1/s", med(func(p tracePass) float64 { return n / (p.untracedNs / 1e9) }))
	m.set("trace.timer_ns", "ns", timerNs)
}

func perN(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runUntimed sets the workload up once and runs its output checks: the
// default-seed outcome against expected.json (printed, so a deliberate
// change can be recorded) and the seed-independent oracle on --seed.
func runUntimed(w workload, seed int64, storeRoot string, c *checks) error {
	fx, err := newFixture(w, storeRoot)
	if err != nil {
		return err
	}
	defer func() { c.op(fx.close(), "stop service") }()
	var got outcome
	if w.service {
		cl := newClient(fx)
		defer cl.close()
		jr := cl.run(jobRequest(campaignSeed(defaultSeed, 0)), false, c)
		if jr == nil {
			return fmt.Errorf("default-seed job failed")
		}
		got = outcomeOfJob(jr.status.Result)
		checkDirect(fx, campaignSeed(defaultSeed, 0), got, c)
		serviceJobs(fx, seed, c)
	} else {
		camp, err := fx.ev.EvaluateSSF(context.Background(), fx.sampler, campaignOptions(w, fixedSamples, defaultSeed))
		if !c.op(err, "default-seed campaign") {
			return err
		}
		got = outcomeOf(camp)
		rp, err := newReplay(fx)
		if err != nil {
			return err
		}
		var ref *montecarlo.Campaign
		layerPass(fx, rp, campaignSeed(seed, 0), false, c, &ref)
	}
	checkExpected(c, w, got)
	data, err := json.Marshal(got)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ssfbench %s: default-seed outcome %s\n", w.name, data)
	return nil
}
