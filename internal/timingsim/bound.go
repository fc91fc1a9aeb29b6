package timingsim

import (
	"math"

	"repro/internal/netlist"
)

// LatchBound is a sound pre-filter for the timed sweep of one injection
// cycle: when MayLatch reports false, InjectBits over that cycle's
// values would latch no register, so the sweep can be skipped. It never
// rejects a strike that latches, for any delay model New accepts.
//
// The bound rests on one invariant of the sweep (propagate,
// conditionWith, appendMerged, xorIntervals): every interval endpoint at
// a gate's output is either one of the gate's own deposit endpoints or
// an endpoint at one of its fanins, moved by +delay if it becomes a
// start and by +delay−Attenuation if it becomes an end. Since every
// interval has Start <= End (MinPulse >= 0), the latest end a struck
// gate g can cause at node n is at most Time+width_g plus the largest
// Σ(delay−Attenuation) over the paths g→n, and the earliest start at
// least Time plus the smallest Σdelay. A register latches only an
// interval that starts by its window start and ends by its window end.
type LatchBound struct {
	// need[n] is the earliest end a pulse deposited at n must reach to
	// cover the window end of some register it reaches; allow[n] is the
	// latest start from which it can still cover a window start. Nodes
	// that reach no register, or whose deposits Inject ignores, hold
	// +Inf and -Inf.
	need, allow []float64
	minPulse    float64
	// scale bounds the magnitude of every path sum and window time; it
	// sizes the tolerance that absorbs floating-point rounding.
	scale float64
}

// boundRelTol is the relative slack MayLatch grants each comparison, so
// that rounding in the sweep's interval arithmetic (which sums along a
// path in a different order than the bound tables) can never make the
// bound reject a strike the sweep latches. Each sweep step rounds by at
// most 2^-53 of the operands' magnitude, so 1e-9 covers paths of over a
// million gates.
const boundRelTol = 1e-9

// LatchBounds returns one LatchBound per injection cycle, each cycle
// given as the dense fault-free value bitset InjectBits takes. A bound
// reads its cycle's values only at the enables of clock-gated
// registers (a register whose enable is low needs the widened window),
// so cycles that agree on every such enable share one bound.
func (s *Simulator) LatchBounds(cycles [][]uint64) []*LatchBound {
	var enables []netlist.NodeID
	for _, r := range s.nl.Regs() {
		if en := s.nl.Node(r).En; en != netlist.Invalid {
			enables = append(enables, en)
		}
	}
	out := make([]*LatchBound, len(cycles))
	shared := make(map[string]*LatchBound)
	key := make([]byte, len(enables))
	for c, vb := range cycles {
		for i, en := range enables {
			key[i] = byte(vb[en>>6] >> (uint(en) & 63) & 1)
		}
		b := shared[string(key)]
		if b == nil {
			b = s.latchBound(vb)
			shared[string(key)] = b
		}
		out[c] = b
	}
	return out
}

// latchBound builds the need/allow tables for one cycle's values in one
// reverse-topological pass. A register's window is exactly the one
// latchCheck applies.
func (s *Simulator) latchBound(vb []uint64) *LatchBound {
	n := s.nl.NumNodes()
	att := s.dm.Attenuation
	b := &LatchBound{
		need:     make([]float64, n),
		allow:    make([]float64, n),
		minPulse: s.dm.MinPulse,
	}
	for _, w := range s.windows {
		b.scale += math.Abs(w.Start) + math.Abs(w.End)
	}
	for i := range b.need {
		b.need[i], b.allow[i] = math.Inf(1), math.Inf(-1)
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		if t := s.cellTypes[id]; t == netlist.Const0 || t == netlist.Const1 {
			continue
		}
		b.scale += math.Abs(s.delays[id]) + math.Abs(att)
		need, allow := math.Inf(1), math.Inf(-1)
		for _, r := range s.regFanout[id] {
			win := s.windows[0]
			if en := s.nl.Node(r).En; en != netlist.Invalid && vb[en>>6]>>(uint(en)&63)&1 == 0 {
				win = s.windows[1]
			}
			need = min(need, win.End)
			allow = max(allow, win.Start)
		}
		for _, fo := range s.combFanout[id] {
			d := s.delays[fo]
			need = min(need, b.need[fo]-(d-att))
			allow = max(allow, b.allow[fo]-d)
		}
		b.need[id], b.allow[id] = need, allow
	}
	return b
}

// MayLatch reports whether strike could latch any register in the
// bound's cycle. False is a proof that Inject/InjectBits would return
// no FlippedRegs; true promises nothing. Deposits Inject ignores (on
// non-combinational or constant nodes, or narrower than MinPulse) are
// ignored here too.
func (b *LatchBound) MayLatch(strike Strike) bool {
	late, early := false, false
	for i, g := range strike.Gates {
		start, end := strike.Time, strike.Time+strike.widthAt(i)
		if end-start < b.minPulse {
			continue
		}
		tol := boundRelTol * (b.scale + math.Abs(start) + math.Abs(end))
		late = late || end+tol >= b.need[g]
		early = early || start-tol <= b.allow[g]
		if late && early {
			return true
		}
	}
	return false
}
