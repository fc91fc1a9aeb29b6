package timingsim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

func randomBits(rng *rand.Rand, n int) []uint64 {
	vb := make([]uint64, (n+63)/64)
	for i := range vb {
		vb[i] = rng.Uint64()
	}
	return vb
}

type namedModel struct {
	name string
	dm   DelayModel
}

// boundModels are the delay models the latch bound is checked under:
// besides the default, ones that stress each term of its tables.
func boundModels() []namedModel {
	var models []namedModel
	add := func(name string, edit func(*DelayModel)) {
		dm := DefaultDelayModel()
		edit(&dm)
		models = append(models, namedModel{name, dm})
	}
	add("default", func(*DelayModel) {})
	add("attenuation13", func(dm *DelayModel) { dm.Attenuation = 13 }) // above the BUF, INV, NAND and NOR delays
	add("gated1", func(dm *DelayModel) { dm.GatedWindowFactor = 1 })
	add("gated3", func(dm *DelayModel) { dm.GatedWindowFactor = 3 }) // a gated-off window narrow enough to latch
	add("gated12", func(dm *DelayModel) { dm.GatedWindowFactor = 12 })
	add("hold0", func(dm *DelayModel) { dm.Hold = 0 })
	return models
}

// checkBoundSound runs one strike through the bound and both sweeps and
// fails if the bound rejected a strike either sweep latches. It reports
// whether the strike latched and whether the bound rejected it.
func checkBoundSound(t *testing.T, b *LatchBound, sparse, dense *Simulator, vb []uint64, st Strike) (latched, rejected bool) {
	t.Helper()
	rejected = !b.MayLatch(st)
	rs := sparse.InjectBits(vb, st)
	rd := dense.InjectBits(vb, st)
	if rejected && (len(rs.FlippedRegs) > 0 || len(rd.FlippedRegs) > 0) {
		t.Fatalf("bound rejected a strike that latches: sparse %v, reference %v (strike %+v)",
			rs.FlippedRegs, rd.FlippedRegs, st)
	}
	return len(rs.FlippedRegs) > 0, rejected
}

// TestLatchBoundSound checks the latch bound never rejects a strike that
// latches, on random designs with clock-gated registers under several
// delay models, and that it is not vacuous: some strikes latch and a
// fair share is rejected. The boundary subtest pins the bound to the
// sweep at its edges.
func TestLatchBoundSound(t *testing.T) {
	t.Run("boundary", testLatchBoundBoundary)
	for _, m := range boundModels() {
		dm := m.dm
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			latched, rejected, total := 0, 0, 0
			for design := 0; design < 4; design++ {
				nl := buildRandomDesign(rng)
				sparse, err := New(nl, dm)
				if err != nil {
					t.Fatal(err)
				}
				dense := sparse.Fork()
				dense.SetReferenceSweep(true)
				for cycle := 0; cycle < 20; cycle++ {
					vb := randomBits(rng, nl.NumNodes())
					b := sparse.LatchBounds([][]uint64{vb})[0]
					for trial := 0; trial < 30; trial++ {
						l, r := checkBoundSound(t, b, sparse, dense, vb, randomStrike(rng, dm, nl.NumNodes()))
						total++
						if l {
							latched++
						}
						if r {
							rejected++
						}
					}
				}
			}
			t.Logf("%d strikes: %d latched, %d rejected", total, latched, rejected)
			if latched == 0 || rejected < total/5 {
				t.Fatalf("vacuous check: %d of %d strikes latched, %d rejected", latched, total, rejected)
			}
		})
	}
}

// testLatchBoundBoundary strikes the head of a four-buffer chain into a
// clock-gated register: a pulse whose end (or start) lands exactly on
// the bound latches and is kept, one just past it latches nothing and
// is rejected. With the enable low the widened window applies, with it
// high the plain one.
func testLatchBoundBoundary(t *testing.T) {
	nl := netlist.New(8)
	in := nl.AddInput("in")
	en := nl.AddInput("en")
	chain := []netlist.NodeID{nl.AddGate(netlist.Buf, in)}
	for i := 0; i < 3; i++ {
		chain = append(chain, nl.AddGate(netlist.Buf, chain[i]))
	}
	reg := nl.AddDFF(chain[3], "q", false)
	nl.SetDFFEnable(reg, en)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	dm := DefaultDelayModel()
	sim, err := New(nl, dm)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-3
	hops := 3.0 // buffers after the struck one
	buf := dm.CellDelay[netlist.Buf]
	for _, enable := range []bool{true, false} {
		vb := make([]uint64, 1)
		factor := dm.GatedWindowFactor
		if enable {
			vb[0] |= 1 << uint(en)
			factor = 1
		}
		b := sim.LatchBounds([][]uint64{vb})[0]
		winStart := dm.ClockPeriod - dm.Setup*factor
		winEnd := dm.ClockPeriod + dm.Hold*factor
		need := winEnd - hops*(buf-dm.Attenuation)
		allow := winStart - hops*buf
		for _, tc := range []struct {
			name        string
			time, width float64
			keep        bool
		}{
			{"end on need", allow - 50, need - (allow - 50), true},
			{"end below need", allow - 50, need - (allow - 50) - eps, false},
			{"start on allow", allow, need - allow + 5, true},
			{"start past allow", allow + eps, need - allow + 5, false},
		} {
			st := Strike{Gates: []netlist.NodeID{chain[0]}, Time: tc.time, Width: tc.width}
			res := sim.InjectBits(vb, st)
			if got := b.MayLatch(st); got != tc.keep {
				t.Errorf("enable %v, %s: MayLatch = %v, want %v", enable, tc.name, got, tc.keep)
			}
			if latched := len(res.FlippedRegs) > 0; latched != tc.keep {
				t.Errorf("enable %v, %s: sweep latched = %v, want %v (the bound is not tight)", enable, tc.name, latched, tc.keep)
			}
		}
	}
}

// FuzzLatchBoundSound checks the soundness property of TestLatchBoundSound
// over fuzzed designs, delay models and strikes.
func FuzzLatchBoundSound(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(6), uint8(12), uint8(10), uint8(12))
	f.Add(int64(3), int64(4), uint8(13), uint8(1), uint8(0), uint8(0))
	f.Add(int64(5), int64(6), uint8(0), uint8(3), uint8(30), uint8(4))
	f.Fuzz(func(t *testing.T, designSeed, strikeSeed int64, att, gated, hold, minPulse uint8) {
		dm := DefaultDelayModel()
		dm.Attenuation = float64(att % 24)
		dm.GatedWindowFactor = float64(gated % 16)
		dm.Hold = float64(hold % 40)
		dm.MinPulse = float64(minPulse % 30)
		nl := buildRandomDesign(rand.New(rand.NewSource(designSeed)))
		sparse, err := New(nl, dm)
		if err != nil {
			t.Fatal(err)
		}
		dense := sparse.Fork()
		dense.SetReferenceSweep(true)
		rng := rand.New(rand.NewSource(strikeSeed))
		for cycle := 0; cycle < 4; cycle++ {
			vb := randomBits(rng, nl.NumNodes())
			b := sparse.LatchBounds([][]uint64{vb})[0]
			for trial := 0; trial < 16; trial++ {
				// Strike times and widths scale with the default model
				// whatever MinPulse is fuzzed to.
				st := randomStrike(rng, DefaultDelayModel(), nl.NumNodes())
				checkBoundSound(t, b, sparse, dense, vb, st)
			}
		}
	})
}
