package logicsim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// buildCounter builds a 4-bit ripple-ish counter out of XOR/AND gates:
// bit0 toggles each cycle, bit i toggles when all lower bits are 1.
func buildCounter(t *testing.T) (*netlist.Netlist, []netlist.NodeID) {
	t.Helper()
	n := netlist.New(64)
	one := n.AddConst(true)
	regs := make([]netlist.NodeID, 4)
	// First create DFFs with placeholder data, then patch.
	for i := range regs {
		regs[i] = n.AddDFF(one, "", false)
	}
	carry := one
	for i := range regs {
		sum := n.AddGate(netlist.Xor, regs[i], carry)
		carry = n.AddGate(netlist.And, regs[i], carry)
		n.Node(regs[i]).Fanin[0] = sum
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, regs
}

func TestCounterCounts(t *testing.T) {
	n, regs := buildCounter(t)
	sim, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 40; want++ {
		if got := sim.ReadWord(regs); got != uint64(want%16) {
			t.Fatalf("cycle %d: counter = %d, want %d", want, got, want%16)
		}
		sim.Step()
	}
}

func TestResetRestoresInit(t *testing.T) {
	n := netlist.New(8)
	in := n.AddInput("in")
	r0 := n.AddDFF(in, "r0", false)
	r1 := n.AddDFF(in, "r1", true)
	sim, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Bool(r0) || !sim.Bool(r1) {
		t.Fatal("power-on values wrong")
	}
	sim.SetInputBool(in, true)
	sim.Step()
	if !sim.Bool(r0) || !sim.Bool(r1) {
		t.Fatal("step did not latch input")
	}
	sim.Reset()
	if sim.Bool(r0) || !sim.Bool(r1) {
		t.Fatal("Reset did not restore init values")
	}
	if sim.Val(in) != 0 {
		t.Fatal("Reset did not clear inputs")
	}
}

func TestSetInputPanicsOnGate(t *testing.T) {
	n := netlist.New(4)
	a := n.AddInput("a")
	g := n.AddGate(netlist.Inv, a)
	sim, _ := New(n)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.SetInput(g, 1)
}

func TestSetRegAndFlip(t *testing.T) {
	n, regs := buildCounter(t)
	sim, _ := New(n)
	sim.Step()
	sim.Step() // counter = 2
	sim.FlipReg(regs[0])
	if got := sim.ReadWord(regs); got != 3 {
		t.Fatalf("after flip: %d, want 3", got)
	}
	sim.SetReg(regs[3], AllLanes)
	if got := sim.ReadWord(regs); got != 11 {
		t.Fatalf("after SetReg: %d, want 11", got)
	}
}

func TestRegStateRoundTrip(t *testing.T) {
	n, regs := buildCounter(t)
	sim, _ := New(n)
	for i := 0; i < 7; i++ {
		sim.Step()
	}
	saved := sim.RegState()
	want := sim.ReadWord(regs)
	for i := 0; i < 5; i++ {
		sim.Step()
	}
	if sim.ReadWord(regs) == want {
		t.Fatal("state did not advance")
	}
	sim.SetRegState(saved)
	if got := sim.ReadWord(regs); got != want {
		t.Fatalf("restore: %d, want %d", got, want)
	}
	// Restored state must evolve identically.
	sim.Step()
	if got := sim.ReadWord(regs); got != (want+1)%16 {
		t.Fatalf("post-restore step: %d, want %d", got, (want+1)%16)
	}
}

func TestForkIsIndependent(t *testing.T) {
	n, regs := buildCounter(t)
	sim, _ := New(n)
	sim.Step()
	fk := sim.Fork()
	fk.Step()
	fk.Step()
	if sim.ReadWord(regs) != 1 {
		t.Fatal("fork mutated parent")
	}
	if fk.ReadWord(regs) != 3 {
		t.Fatal("fork did not advance")
	}
}

// buildMixed builds a small sequential circuit whose combinational
// cloud exercises every compiled opcode class: all six 2-input gate
// types, Inv/Buf, Mux2, both constants, variable-fanin (3- and
// 4-input) gates including the inverted N-ary forms, and DFFs with
// mixed init values fed back through the cloud.
func buildMixed(t *testing.T) (nl *netlist.Netlist, inputs, regs []netlist.NodeID) {
	t.Helper()
	n := netlist.New(64)
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	one := n.AddConst(true)
	zero := n.AddConst(false)
	regs = make([]netlist.NodeID, 6)
	for i := range regs {
		regs[i] = n.AddDFF(one, "", i%2 == 0)
	}
	g0 := n.AddGate(netlist.And, a, regs[0])
	g1 := n.AddGate(netlist.Nand, b, regs[1])
	g2 := n.AddGate(netlist.Or, c, regs[2])
	g3 := n.AddGate(netlist.Nor, g0, regs[3])
	g4 := n.AddGate(netlist.Xor, g1, regs[4])
	g5 := n.AddGate(netlist.Xnor, g2, regs[5])
	g6 := n.AddGate(netlist.Inv, g3)
	g7 := n.AddGate(netlist.Buf, g4)
	g8 := n.AddGate(netlist.Mux2, g5, g6, g7)
	g9 := n.AddGate(netlist.And, g0, g1, g2)
	g10 := n.AddGate(netlist.Nor, g3, g4, g5, a)
	g11 := n.AddGate(netlist.Xor, g6, g7, g8)
	g12 := n.AddGate(netlist.Nand, g9, g10, b)
	g13 := n.AddGate(netlist.Xnor, g11, g12, c)
	g14 := n.AddGate(netlist.Or, g13, zero, g8)
	n.Node(regs[0]).Fanin[0] = g8
	n.Node(regs[1]).Fanin[0] = g9
	n.Node(regs[2]).Fanin[0] = g10
	n.Node(regs[3]).Fanin[0] = g11
	n.Node(regs[4]).Fanin[0] = g12
	n.Node(regs[5]).Fanin[0] = g14
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, []netlist.NodeID{a, b, c}, regs
}

// TestForkSharesPlan checks the aliasing contract of Fork: the compiled
// plan (immutable) is shared by pointer, while the value state is an
// independent deep copy — stepping the fork must not disturb the
// parent.
func TestForkSharesPlan(t *testing.T) {
	nl, inputs, _ := buildMixed(t)
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	s.DriveWord(inputs, 5)
	s.Eval()
	f := s.Fork()
	if s.Plan() != f.Plan() {
		t.Fatal("Fork must share the parent's compiled plan")
	}
	before := make([]uint64, nl.NumNodes())
	for i := range before {
		before[i] = s.Val(netlist.NodeID(i))
	}
	f.DriveWord(inputs, 2)
	f.Step()
	f.Step()
	for i := range before {
		if got := s.Val(netlist.NodeID(i)); got != before[i] {
			t.Fatalf("stepping the fork changed parent node %d: %#x -> %#x", i, before[i], got)
		}
	}
}

func TestBitParallelLanes(t *testing.T) {
	// XOR of two inputs evaluated on 64 lanes at once must equal the
	// word-level XOR.
	n := netlist.New(8)
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddGate(netlist.Xor, a, b)
	sim, _ := New(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		x, y := rng.Uint64(), rng.Uint64()
		sim.SetInput(a, x)
		sim.SetInput(b, y)
		sim.Eval()
		if sim.Val(g) != x^y {
			t.Fatalf("lane mismatch: %x", sim.Val(g)^(x^y))
		}
	}
}

func TestDriveWordLanes(t *testing.T) {
	n := netlist.New(16)
	bits := []netlist.NodeID{n.AddInput("w[0]"), n.AddInput("w[1]"), n.AddInput("w[2]")}
	sim, _ := New(n)
	sim.DriveWordLanes(bits, []uint64{5, 2, 7})
	// Lane 0 → 5 (101), lane 1 → 2 (010), lane 2 → 7 (111).
	if !sim.Lane(bits[0], 0) || sim.Lane(bits[0], 1) || !sim.Lane(bits[0], 2) {
		t.Error("bit 0 lanes wrong")
	}
	if sim.Lane(bits[1], 0) || !sim.Lane(bits[1], 1) || !sim.Lane(bits[1], 2) {
		t.Error("bit 1 lanes wrong")
	}
	if !sim.Lane(bits[2], 0) || sim.Lane(bits[2], 1) || !sim.Lane(bits[2], 2) {
		t.Error("bit 2 lanes wrong")
	}
}

func TestReadWriteWord(t *testing.T) {
	n := netlist.New(16)
	var bits []netlist.NodeID
	for i := 0; i < 8; i++ {
		bits = append(bits, n.AddInput(""))
	}
	sim, _ := New(n)
	for _, v := range []uint64{0, 1, 0x5A, 0xFF} {
		sim.DriveWord(bits, v)
		if got := sim.ReadWord(bits); got != v {
			t.Errorf("round trip %#x -> %#x", v, got)
		}
	}
}

func TestTraceScalarCounter(t *testing.T) {
	n, regs := buildCounter(t)
	sim, _ := New(n)
	tr := CaptureScalar(sim, 32, nil)
	if tr.NumCycles() != 32 {
		t.Fatal("cycle count")
	}
	for c := 0; c < 32; c++ {
		for b := 0; b < 4; b++ {
			want := c%16>>uint(b)&1 == 1
			if got := tr.Value(regs[b], c); got != want {
				t.Fatalf("cycle %d bit %d: %v, want %v", c, b, got, want)
			}
		}
	}
}

func TestTraceParallelMatchesScalar(t *testing.T) {
	n, _ := buildCounter(t)
	s1, _ := New(n)
	s2, _ := New(n)
	const cycles = 200 // deliberately not a multiple of 64
	t1 := CaptureScalar(s1, cycles, nil)
	t2 := CaptureParallel(s2, cycles, nil)
	for i := 0; i < n.NumNodes(); i++ {
		id := netlist.NodeID(i)
		b1, b2 := t1.ValueBits(id), t2.ValueBits(id)
		for w := range b1 {
			if b1[w] != b2[w] {
				t.Fatalf("node %d word %d: scalar %x parallel %x", i, w, b1[w], b2[w])
			}
		}
	}
}

func TestTraceParallelWithInputs(t *testing.T) {
	n := netlist.New(16)
	in := n.AddInput("in")
	r := n.AddDFF(in, "r", false)
	g := n.AddGate(netlist.Xor, r, in)
	_ = g
	drive := func(sim *Simulator) func(int) {
		return func(c int) { sim.SetInputBool(in, c%3 == 0) }
	}
	s1, _ := New(n)
	s2, _ := New(n)
	t1 := CaptureScalar(s1, 100, drive(s1))
	t2 := CaptureParallel(s2, 100, drive(s2))
	for i := 0; i < n.NumNodes(); i++ {
		id := netlist.NodeID(i)
		for c := 0; c < 100; c++ {
			if t1.Value(id, c) != t2.Value(id, c) {
				t.Fatalf("node %d cycle %d mismatch", i, c)
			}
		}
	}
}

func TestSwitchSignature(t *testing.T) {
	n, regs := buildCounter(t)
	sim, _ := New(n)
	tr := CaptureScalar(sim, 128, nil)
	// Bit 0 of the counter toggles every cycle: ss = all ones except bit 0.
	ss := tr.SwitchSignature(regs[0])
	if ss[0] != ^uint64(1) || ss[1] != ^uint64(0) {
		t.Fatalf("ss(bit0) = %x %x", ss[0], ss[1])
	}
	// Bit 1 toggles every 2 cycles (at even cycles).
	ss1 := tr.SwitchSignature(regs[1])
	for c := 1; c < 128; c++ {
		want := c%2 == 0
		got := ss1[c/64]>>uint(c%64)&1 == 1
		if got != want {
			t.Fatalf("ss(bit1) cycle %d: %v, want %v", c, got, want)
		}
	}
	if ss1[0]&1 != 0 {
		t.Fatal("ss bit 0 must be 0")
	}
}

func TestSwitchSignatureConstant(t *testing.T) {
	n := netlist.New(8)
	in := n.AddInput("in")
	r := n.AddDFF(in, "r", false)
	sim, _ := New(n)
	tr := CaptureScalar(sim, 70, nil) // input held at 0: r never switches
	ss := tr.SwitchSignature(r)
	for _, w := range ss {
		if w != 0 {
			t.Fatal("constant node should have empty switching signature")
		}
	}
}

func TestTraceValueBoundsPanic(t *testing.T) {
	n, _ := buildCounter(t)
	sim, _ := New(n)
	tr := CaptureScalar(sim, 10, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Value(0, 10)
}
