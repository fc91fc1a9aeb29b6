package timingsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// buildRandomDesign returns a random layered netlist exercising every
// cell type, multi-fanin gates, clock-gated registers, and a second
// combinational stage fed by register outputs.
func buildRandomDesign(rng *rand.Rand) *netlist.Netlist {
	nl := netlist.New(512)
	var pool []netlist.NodeID
	for i := 0; i < 12; i++ {
		pool = append(pool, nl.AddInput("in"))
	}
	pool = append(pool, nl.AddConst(false), nl.AddConst(true))
	gateTypes := []netlist.CellType{
		netlist.Buf, netlist.Inv, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux2,
	}
	pick := func() netlist.NodeID { return pool[rng.Intn(len(pool))] }
	addGates := func(count int) {
		for i := 0; i < count; i++ {
			t := gateTypes[rng.Intn(len(gateTypes))]
			var id netlist.NodeID
			switch t {
			case netlist.Buf, netlist.Inv:
				id = nl.AddGate(t, pick())
			case netlist.Mux2:
				id = nl.AddGate(t, pick(), pick(), pick())
			default:
				n := 2 + rng.Intn(9) // up to 10 fanins to hit the spill path
				fi := make([]netlist.NodeID, n)
				for j := range fi {
					fi[j] = pick()
				}
				id = nl.AddGate(t, fi...)
			}
			pool = append(pool, id)
		}
	}
	addGates(260)
	var regs []netlist.NodeID
	for i := 0; i < 40; i++ {
		r := nl.AddDFF(pick(), "", rng.Intn(2) == 0)
		if rng.Intn(3) == 0 {
			nl.SetDFFEnable(r, pick())
		}
		regs = append(regs, r)
		pool = append(pool, r)
	}
	addGates(80)
	for i := 0; i < 10; i++ {
		nl.AddDFF(pick(), "", false)
	}
	if err := nl.Validate(); err != nil {
		panic(err)
	}
	return nl
}

func randomValues(rng *rand.Rand, n int) func(netlist.NodeID) bool {
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	return func(id netlist.NodeID) bool { return vals[id] }
}

func randomStrike(rng *rand.Rand, dm DelayModel, numNodes int) Strike {
	st := Strike{
		Time:  rng.Float64() * dm.ClockPeriod * 1.3,
		Width: rng.Float64() * dm.MinPulse * 12,
	}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		// Any node id: non-combinational picks must be skipped
		// identically by both sweeps.
		st.Gates = append(st.Gates, netlist.NodeID(rng.Intn(numNodes)))
	}
	if rng.Intn(2) == 0 {
		st.Widths = make([]float64, len(st.Gates))
		for i := range st.Widths {
			st.Widths[i] = rng.Float64() * dm.MinPulse * 12
		}
	}
	return st
}

func resultsEqual(a, b Result) bool {
	if a.ActiveGates != b.ActiveGates || a.ReachedRegs != b.ReachedRegs ||
		len(a.FlippedRegs) != len(b.FlippedRegs) {
		return false
	}
	for i := range a.FlippedRegs {
		if a.FlippedRegs[i] != b.FlippedRegs[i] {
			return false
		}
	}
	return true
}

func wavesEqual(a, b []Interval) bool {
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

// TestSparseMatchesReferenceSweep drives ~1k random strikes through the
// sparse fault-cone sweep and the dense full-order reference sweep and
// requires bit-identical results — including the waveform of every
// node, not just the latched registers.
func TestSparseMatchesReferenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dm := DefaultDelayModel()
	for design := 0; design < 4; design++ {
		nl := buildRandomDesign(rng)
		sparse, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		dense.SetReferenceSweep(true)
		for trial := 0; trial < 300; trial++ {
			values := randomValues(rng, nl.NumNodes())
			st := randomStrike(rng, dm, nl.NumNodes())
			rs := sparse.Inject(values, st)
			rd := dense.Inject(values, st)
			if !resultsEqual(rs, rd) {
				t.Fatalf("design %d trial %d: sparse %+v != dense %+v (strike %+v)",
					design, trial, rs, rd, st)
			}
			for i := 0; i < nl.NumNodes(); i++ {
				id := netlist.NodeID(i)
				if !wavesEqual(sparse.Wave(id), dense.Wave(id)) {
					t.Fatalf("design %d trial %d: node %d wave sparse %v != dense %v",
						design, trial, i, sparse.Wave(id), dense.Wave(id))
				}
			}
		}
	}
}

// TestForkSharedConeCacheRace runs forked simulators concurrently over
// the same design with overlapping strikes, so the shared cone-schedule
// cache is built and read from multiple goroutines (run under -race),
// then checks every fork produced the same results as a fresh serial
// simulator fed the same sequence.
func TestForkSharedConeCacheRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := buildRandomDesign(rng)
	dm := DefaultDelayModel()
	base, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const trials = 200
	type runs struct {
		flipped [][]netlist.NodeID
	}
	out := make([]runs, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sim := base
		if w > 0 {
			sim = base.Fork()
		}
		wg.Add(1)
		go func(w int, sim *Simulator) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < trials; i++ {
				values := randomValues(wrng, nl.NumNodes())
				st := randomStrike(wrng, dm, nl.NumNodes())
				res := sim.Inject(values, st)
				out[w].flipped = append(out[w].flipped,
					append([]netlist.NodeID(nil), res.FlippedRegs...))
			}
		}(w, sim)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		ref, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		wrng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < trials; i++ {
			values := randomValues(wrng, nl.NumNodes())
			st := randomStrike(wrng, dm, nl.NumNodes())
			res := ref.Inject(values, st)
			if !wavesEqualIDs(res.FlippedRegs, out[w].flipped[i]) {
				t.Fatalf("worker %d trial %d: flipped %v, serial reference %v",
					w, i, out[w].flipped[i], res.FlippedRegs)
			}
		}
	}
}

func wavesEqualIDs(a, b []netlist.NodeID) bool {
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

// TestTouchedResetIsComplete checks that the targeted reset leaves no
// stale waveform behind: a big strike followed by a tiny disjoint one
// must give the tiny strike's standalone result.
func TestTouchedResetIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl := buildRandomDesign(rng)
	dm := DefaultDelayModel()
	sim, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	values := randomValues(rng, nl.NumNodes())
	big := randomStrike(rng, dm, nl.NumNodes())
	big.Width = dm.MinPulse * 40
	small := randomStrike(rng, dm, nl.NumNodes())
	sim.Inject(values, big)
	got := sim.Inject(values, small)
	want := fresh.Inject(values, small)
	if !resultsEqual(got, want) {
		t.Fatalf("stale state: after big strike got %+v, fresh sim %+v", got, want)
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if !wavesEqual(sim.Wave(id), fresh.Wave(id)) {
			t.Fatalf("node %d: stale wave %v, fresh %v", i, sim.Wave(id), fresh.Wave(id))
		}
	}
}

// buildWideOr returns a netlist whose OR gate sees `fan` single-interval
// fanin waves when all bufs are struck: `fan` distinct interval ends
// means `fan` spans at the OR, so for fan > 64 propagate's span sweep
// runs over several 64-span chunks. It returns the bufs and the OR.
func buildWideOr(t *testing.T, fan int) (*netlist.Netlist, []netlist.NodeID, netlist.NodeID) {
	t.Helper()
	nl := netlist.New(fan + 8)
	a := nl.AddInput("a")
	bufs := make([]netlist.NodeID, fan)
	for i := range bufs {
		bufs[i] = nl.AddGate(netlist.Buf, a)
	}
	or := nl.AddGate(netlist.Or, bufs...)
	nl.AddDFF(or, "cap", false)
	inv := nl.AddGate(netlist.Inv, or)
	nl.AddDFF(inv, "capn", true)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl, bufs, or
}

// TestSweepManySpans strikes 300 buffers feeding one OR with staggered
// pulse widths, so the OR's span sweep sees ~300 spans and crosses
// four 64-span chunk boundaries. The result and every node's waveform
// must be bit-identical to the reference sweep, and the strike must
// actually flip a register so the check is not vacuous. The two sweeps
// share propagate, so the OR's wave is also checked on its own terms:
// the fanin pulses all start together, so their union is one interval,
// and a span lost or duplicated at a chunk boundary would split it.
func TestSweepManySpans(t *testing.T) {
	const fan = 300
	nl, bufs, or := buildWideOr(t, fan)
	dm := DefaultDelayModel()
	st := Strike{Gates: bufs, Time: 500, Widths: make([]float64, fan)}
	for i := range st.Widths {
		// Distinct widths: 300 distinct interval ends → ~300 spans at
		// the OR. The longest pulses cross the latch window
		// [ClockPeriod-Setup, ClockPeriod+Hold] = [575, 610].
		st.Widths[i] = 20 + 0.5*float64(i)
	}
	values := func(netlist.NodeID) bool { return false }

	dense, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	dense.SetReferenceSweep(true)
	ref := dense.Inject(values, st)
	if len(ref.FlippedRegs) == 0 {
		t.Fatal("strike flipped no register — the many-span check would be vacuous")
	}
	sparse, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	if got := sparse.Inject(values, st); !resultsEqual(got, ref) {
		t.Fatalf("sparse sweep %+v, reference %+v", got, ref)
	}
	for i := 0; i < nl.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if !wavesEqual(sparse.Wave(id), dense.Wave(id)) {
			t.Fatalf("node %d waveform diverges from the reference sweep", id)
		}
	}
	if w := sparse.Wave(or); len(w) != 1 {
		t.Fatalf("OR waveform %v, want one interval", w)
	}
}
