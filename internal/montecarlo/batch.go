// Lane-batched campaign execution: 64-sample bit-parallel RTL resume.
//
// A scalar RunOnce pays three per-sample costs: a checkpoint restore to
// the injection cycle, one full SoC cycle to apply the gate-level
// injection, and an RTL resume of the faulty SoC to the marked access's
// decision. The batched path removes the first two by classifying every
// single-cycle sample against the golden attack window's post-evaluation
// node values (recorded once per candidate injection cycle — the
// injection is a pure function of those values), and
// amortizes the third by packing up to 64 post-injection register
// states into the lanes of one forked logicsim.Simulator and stepping
// them together against the recorded golden bus trace.
//
// A faulty MPU only influences the rest of the system through its
// grant/viol outputs at response-consumption cycles, so while a lane's
// outputs match the recorded golden responses the behavioural core,
// memory, and DMA provably stay on the golden trajectory and the shared
// replay is exact. A lane whose responding signals diverge gets its own
// soc.System, taken from the golden checkpoint of the divergence cycle,
// and stays in the simulator: each cycle its system consumes the lane's
// own grant/viol bits, and the port bits it drives differently from the
// golden trace are patched into its lane. A lane whose state returns to
// golden has converged (the fault died — the attack failed), mirroring
// the scalar convergence cut. Fixed-seed campaign results are
// bit-identical to evaluating every sample with RunOnce.
package montecarlo

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/soc"
	"repro/internal/timingsim"
)

// batchState caches the injection inputs of the golden attack window and
// the lane simulator; it is built lazily on the first batched run after
// RunGolden and reused for the rest of the campaign. The golden register
// words and behavioural system of every cycle are read from the golden
// checkpoints: the golden run never flips a lane, so each register word
// is a uniform broadcast and doubles as the 64-lane reference state.
type batchState struct {
	// The injection window is [lo, TargetCycle] with lo = TargetCycle -
	// TRange (clamped to 0). markedResp = TargetCycle + 1 is the cycle
	// the marked response is consumed: no lane stays on the golden
	// trajectory past it.
	lo         int
	markedResp int
	// comb[c-lo] is a bitset over node IDs of the golden post-Eval
	// values during cycle c (injection cycles only, c <= TargetCycle) —
	// exactly what a scalar StepInject would hand the inject callback.
	comb [][]uint64
	// bounds[c-lo] is the timed sweep's latch bound for injection cycle
	// c, parallel to comb: a gate strike it rejects latches nothing, so
	// evalSample skips its sweep.
	bounds []*timingsim.LatchBound
	sim    *logicsim.Simulator
	// laneSys[l] is the behavioural system of lane l once it diverged,
	// reused across batches.
	laneSys [DefaultLanes]soc.System

	// exits, when non-nil, collects how every diverged lane retired
	// (tests only).
	exits *[]laneExit
}

// laneExit records how and in which state a diverged lane retired.
type laneExit struct {
	idx, te int
	cut     bool // retired by the convergence cut
	// replayed marks a lane whose result came from the scalar fallback.
	replayed bool
	// sys and regs are the lane's behavioural system and register bits
	// (one per register, Netlist.Regs order) at retirement.
	sys  soc.System
	regs []bool
}

// pendingResume is one deferred PathRTL sample awaiting a lane of a
// batched resume.
type pendingResume struct {
	idx   int // index into the caller's results slice
	te    int // injection cycle
	flips []netlist.NodeID
}

// ensureBatchState records the injection window once: the post-Eval
// value bitsets the gate-level injection consumes and the latch bound of
// each injection cycle.
func (e *Engine) ensureBatchState() *batchState {
	if e.batch != nil {
		return e.batch
	}
	g := e.golden
	lo := max(g.TargetCycle-e.Attack.TRange, 0)
	b := &batchState{lo: lo, markedResp: g.TargetCycle + 1}
	b.comb = make([][]uint64, g.TargetCycle-lo+1)
	nn := e.SoC.MPU.Netlist.NumNodes()
	e.SoC.Restore(g.Checkpoints[lo])
	for c := lo; c <= g.TargetCycle; c++ {
		bitset := make([]uint64, (nn+63)/64)
		e.SoC.StepInject(func(values func(netlist.NodeID) bool) []netlist.NodeID {
			for i := 0; i < nn; i++ {
				if values(netlist.NodeID(i)) {
					bitset[i>>6] |= 1 << uint(i&63)
				}
			}
			return nil
		})
		b.comb[c-lo] = bitset
	}
	b.bounds = e.Timing.LatchBounds(b.comb)
	b.sim = e.SoC.Sim.Fork()
	e.batch = b
	return b
}

// evalSample runs one sample's injection and classification against the
// cached golden window, without touching the SoC simulator. Samples the
// fast path cannot express exactly (effective multi-cycle disturbances,
// injection cycles outside the recorded window) fall through to the
// scalar RunOnce; rng consumption order is identical either way. When
// the outcome needs an RTL resume the result is returned with Path set
// to PathRTL and deferred=true, and the caller must complete it through
// a batched resume (or scalar fallback) before reading Success and
// ResumeCycles.
func (e *Engine) evalSample(rng *rand.Rand, sample fault.Sample, mode Mode) (res RunResult, te int, deferred bool) {
	g := e.golden
	b := e.ensureBatchState()
	te = g.TargetCycle - sample.T
	cycles := sample.Cycles
	if cycles < 1 || mode == RegisterAttack {
		cycles = 1
	}
	if max := g.TargetCycle - te + 1; cycles > max {
		cycles = max
	}
	if cycles != 1 || te < b.lo || te > g.TargetCycle {
		return e.RunOnce(rng, sample, mode), te, false
	}

	var flips []netlist.NodeID
	switch mode {
	case GateAttack:
		gates, dists := e.spotIndex().CombWithin(sample.Center, sample.Radius)
		if len(gates) > 0 {
			var strike timingsim.Strike
			strike, e.strikeWidths = e.Attack.StrikeFrom(sample, gates, dists, e.strikeWidths)
			// A strike the bound rejects flips nothing, and hardening
			// draws only for flips, so skipping both keeps rng parity.
			if b.bounds[te-b.lo].MayLatch(strike) {
				injected := e.Timing.InjectBits(b.comb[te-b.lo], strike)
				flips = e.applyHardening(rng, injected.FlippedRegs)
			}
		}
	case RegisterAttack:
		flips = e.applyHardening(rng, e.spotIndex().DFFWithin(sample.Center, sample.Radius))
	}
	res, needRTL := e.classifySingle(sample.T, te, flips)
	return res, te, needRTL
}

// RunBatch evaluates the samples exactly as consecutive RunOnce calls
// would (same rng consumption, bit-identical results) but completes the
// PathRTL resumes through the lane-batched speculative path.
// RunGolden must have been called.
func (e *Engine) RunBatch(rng *rand.Rand, samples []fault.Sample, mode Mode) []RunResult {
	results := make([]RunResult, len(samples))
	pend := make([]pendingResume, 0, 64)
	for i, s := range samples {
		res, te, deferred := e.evalSample(rng, s, mode)
		results[i] = res
		if deferred {
			pend = append(pend, pendingResume{idx: i, te: te, flips: res.Flipped})
		}
	}
	e.flushResumes(pend, results)
	return results
}

// flushResumes completes the deferred resumes in 64-lane batches.
// Lanes need not share an injection cycle: an unloaded lane of the
// forked simulator follows the golden trajectory exactly (inputs are
// broadcast and evaluation is lane-wise), so each sample's flips are
// XORed into its lane when the shared resume reaches that sample's
// te+1. Sorting by te keeps each batch's cycle span (and the staggered
// entries) tight. Each lane's trajectory is a function of only its own
// (te, flips) and the shared golden trace, so how the pending list is
// chunked never affects any sample's outcome.
func (e *Engine) flushResumes(pend []pendingResume, results []RunResult) {
	slices.SortStableFunc(pend, func(a, b pendingResume) int { return cmp.Compare(a.te, b.te) })
	for start := 0; start < len(pend); start += DefaultLanes {
		e.resumeBatch(pend[start:min(start+DefaultLanes, len(pend))], results)
	}
}

// resumeBatch resumes up to 64 post-injection register states together:
// lane l of every register holds lanes[l]'s faulty value, and the
// forked simulator steps once per cycle, with each lane's flips entering
// at its own injection cycle +1. Every lane retires exactly where the
// scalar resumeRTL would stop.
//
// A lane on the golden trajectory sees the recorded golden inputs. One
// XOR pass against the golden register words per cycle yields every
// lane's error-liveness bit (converged lanes retire as failed), and its
// grant/viol signals are compared against the recorded golden responses
// at consumption cycles. Lanes still on the golden trajectory when the
// marked response is consumed retire with the closed-form outcome.
//
// A lane whose responses diverge at cycle c continues with its own
// system, started from the golden system of cycle c; it retires when
// that system is done, the marked access resolves, the resume horizon
// expires, or it meets the convergence cut. The scalar cut digests all
// 64 lanes of the scalar SoC, whose lanes 1–63 start golden at c and see
// the faulty system's inputs. While the lane has driven exactly the
// golden inputs since c, those lanes are still golden, so the cut fires
// iff the lane's system and registers equal golden. Once it has driven
// other inputs, a lane that comes back to golden is replayed through the
// scalar resume instead. lanes must be te-sorted.
func (e *Engine) resumeBatch(lanes []pendingResume, results []RunResult) {
	b := e.batch
	g := e.golden
	sim := b.sim
	mpu := e.SoC.MPU
	startC := lanes[0].te + 1
	sim.SetRegState(g.Checkpoints[startC].MPURegs)
	// golden: lanes on the golden trajectory; own: diverged lanes
	// stepping their own system; strayed: own lanes that have driven
	// other inputs than the golden trace since they diverged.
	var golden, own, strayed uint64
	next := 0
	useCut := !e.DisableConvergenceCut
	limit := g.FinalCycle + e.ResumeMargin
	grant, viol := mpu.OutGrant[0], mpu.OutViol[0]
	ports := mpu.PortNodes()
	var patch [64]uint64 // per port bit: the lanes driving it inverted
	trace := g.BusTrace
	//hot
	for c := startC; ; c++ {
		for next < len(lanes) && lanes[next].te+1 == c {
			bit := uint64(1) << uint(next)
			for _, r := range lanes[next].flips {
				sim.SetReg(r, sim.Val(r)^bit)
			}
			golden |= bit
			next++
		}
		// diff: lanes whose registers differ from golden; all lanes
		// when the cut is off or the golden run has ended.
		diff := logicsim.AllLanes
		if useCut && c <= g.FinalCycle {
			diff = sim.RegDiffMask(g.Checkpoints[c].MPURegs)
			if conv := golden &^ diff; conv != 0 {
				for m := conv; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					results[lanes[l].idx].ResumeCycles = c - (lanes[l].te + 1)
				}
				golden &^= conv
			}
		}
		gw, vw := sim.Val(grant), sim.Val(viol)
		if c == b.markedResp {
			// Every remaining golden lane reaches the marked decision
			// with golden behavioural state, so its outcome is a closed
			// form of its own grant/viol lanes: the scalar resume would
			// step this one cycle — consuming the marked response with
			// the lane's responding signals (committed = grant, trapped
			// = viol) — and exit resolved.
			for m := golden; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				r := &results[lanes[l].idx]
				r.ResumeCycles = c + 1 - (lanes[l].te + 1)
				r.Success = gw>>uint(l)&1 == 1 && vw>>uint(l)&1 == 0
			}
			golden = 0
		} else if golden != 0 && trace[c].RespConsumed {
			ent := &trace[c]
			div := (gw ^ logicsim.Broadcast(ent.RespGrant)) | (vw ^ logicsim.Broadcast(ent.RespViol))
			if div &= golden; div != 0 {
				for m := div; m != 0; m &= m - 1 {
					b.laneSys[bits.TrailingZeros64(m)] = g.Checkpoints[c].System()
				}
				golden &^= div
				own |= div
			}
		}
		for m := own; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			sys := &b.laneSys[l]
			ln := &lanes[l]
			r := &results[ln.idx]
			cut := false
			switch {
			case sys.Done() || sys.Marked.Resolved || c >= limit:
				r.ResumeCycles, r.Success = c-(ln.te+1), sys.AttackSucceeded()
			case diff>>uint(l)&1 == 0 && g.Checkpoints[c].SameDigest(sys):
				cut = true
				if strayed>>uint(l)&1 == 0 {
					r.ResumeCycles, r.Success = c-(ln.te+1), false
				} else {
					r.ResumeCycles, r.Success = e.resumeInjected(ln.te, ln.flips)
				}
			default:
				continue
			}
			own &^= 1 << uint(l)
			if b.exits != nil {
				b.recordExit(ln, uint(l), cut, cut && strayed>>uint(l)&1 == 1)
			}
		}
		if golden|own == 0 && next == len(lanes) {
			return
		}

		// Drive the golden port word, with each own lane's differing
		// bits inverted in its lane, and clock.
		var base uint64
		if c < g.FinalCycle {
			base = mpu.PortWord(&trace[c])
		}
		for m := own; m != 0; m &= m - 1 {
			l := uint(bits.TrailingZeros64(m))
			ent := b.laneSys[l].StepBus(gw>>l&1 == 1, vw>>l&1 == 1)
			if d := mpu.PortWord(&ent) ^ base; d != 0 {
				strayed |= 1 << l
				for ; d != 0; d &= d - 1 {
					patch[bits.TrailingZeros64(d)] |= 1 << l
				}
			}
		}
		for i, id := range ports {
			sim.SetInput(id, -(base>>uint(i)&1)^patch[i])
			patch[i] = 0
		}
		sim.Step()
	}
}

// recordExit appends a retiring diverged lane to exits.
func (b *batchState) recordExit(p *pendingResume, l uint, cut, replayed bool) {
	x := laneExit{idx: p.idx, te: p.te, cut: cut, replayed: replayed, sys: b.laneSys[l]}
	for _, r := range b.sim.Netlist().Regs() {
		x.regs = append(x.regs, b.sim.Val(r)>>l&1 == 1)
	}
	*b.exits = append(*b.exits, x)
}

// resumeInjected is the scalar resume a diverged lane stands for: from
// the state RunOnce reaches after the injection cycle te — golden at
// te+1 with the flips in lane 0 — it runs the scalar RTL resume. The
// golden-trajectory part of that resume up to the divergence is
// replayed too, so ResumeCycles counts from te+1 as in RunOnce.
func (e *Engine) resumeInjected(te int, flips []netlist.NodeID) (resumed int, success bool) {
	e.SoC.Restore(e.golden.Checkpoints[te+1])
	e.SoC.FlipRegsNow(flips)
	return e.resumeRTL()
}
