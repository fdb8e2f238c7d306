package symexec

import (
	"strconv"

	"symplfied/internal/detector"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symbolic"
)

// Trace messages. The stepper records an event at every injection, fork,
// learned constraint, erroneous control transfer, exception and halt, but
// only the traces of findings are ever read. Each site therefore records one
// of these small values, holding only immutable data (program, detector and
// exception pointers, terms, output items that are never rewritten), and the
// text is formatted when the trace is read (package trace). Fixed phrases are
// recorded as trace.Text constants. Messages render by concatenation rather
// than fmt, so a rendering allocates its parts and result, not boxed
// arguments: a search whose findings are most of its terminal states renders
// most of its events.

// phrase is a fixed reason a fan-out gives for the constraints it learns.
type phrase uint8

// Fixed reasons; atInstr means the reason is the comparing instruction.
const (
	atInstr phrase = iota
	divZeroCase
	divNonzeroCase
	addrNotDefined
	addrNotPreviouslyDefined
	loadResolves
	storeResolves
	controlTargetResolves
)

var phrases = [...]string{
	divZeroCase:              "div-zero case",
	divNonzeroCase:           "div-nonzero case",
	addrNotDefined:           "address not defined",
	addrNotPreviouslyDefined: "address not previously defined",
	loadResolves:             "load resolves",
	storeResolves:            "store resolves",
	controlTargetResolves:    "control target resolves",
}

// reason says why a fork or constraint was introduced: the comparing
// instruction (set-compare, branch or CHECK) at pc of prog, or a fixed
// phrase.
type reason struct {
	prog   *isa.Program
	pc     int
	phrase phrase
}

// fixed is the reason given by a fixed phrase.
func fixed(p phrase) reason { return reason{phrase: p} }

// String renders "<op> at <location>", or "detector <id> at <location>" for
// a CHECK, whose immediate is the detector ID.
func (r reason) String() string {
	if r.phrase != atInstr {
		return phrases[r.phrase]
	}
	in := r.prog.At(r.pc)
	if in.Op == isa.OpCheck {
		return "detector " + strconv.FormatInt(in.Imm, 10) + " at " + r.prog.Locate(r.pc)
	}
	return in.Op.String() + " at " + r.prog.Locate(r.pc)
}

// forkMsg records which way a comparison fork went.
type forkMsg struct {
	why reason
	cmp isa.Cmp
}

func (m forkMsg) String() string { return m.why.String() + ": assume " + m.cmp.String() }

// constraintMsg records a learned constraint "term cmp rhs".
type constraintMsg struct {
	why  reason
	term symbolic.Term
	cmp  isa.Cmp
	rhs  int64
}

func (m constraintMsg) String() string {
	return m.why.String() + ": " + m.term.String() + " " + m.cmp.String() + " " + strconv.FormatInt(m.rhs, 10)
}

// relMsg records a learned difference constraint "x cmp y" between the terms
// of two distinct roots.
type relMsg struct {
	why  reason
	x, y symbolic.Term
	cmp  isa.Cmp
}

func (m relMsg) String() string {
	return m.why.String() + ": " + m.x.String() + " " + m.cmp.String() + " " + m.y.String()
}

// resolvedMsg records the defined address a load or store through an
// erroneous pointer resolved to.
type resolvedMsg struct {
	store bool
	addr  int64
}

func (m resolvedMsg) String() string {
	what := "load"
	if m.store {
		what = "store"
	}
	return what + " through erroneous pointer resolved to " + strconv.FormatInt(m.addr, 10)
}

// controlMsg records the code location an erroneous control target resolved
// to.
type controlMsg struct {
	prog *isa.Program
	pc   int
}

func (m controlMsg) String() string {
	return "control transferred through erroneous target to " + m.prog.Locate(m.pc)
}

// injectMsg records an injection of err into loc at pc.
type injectMsg struct {
	root symbolic.RootID
	loc  isa.Loc
	prog *isa.Program
	pc   int
}

func (m injectMsg) String() string {
	return "err (e#" + strconv.Itoa(int(m.root)) + ") injected into " + m.loc.String() + " at " + m.prog.Locate(m.pc)
}

// stuckMsg records that the fault in loc is permanent.
type stuckMsg struct{ loc isa.Loc }

func (m stuckMsg) String() string { return "fault in " + m.loc.String() + " is permanent (stuck-at)" }

// excMsg records a raised exception. Its text reads only the fields raise
// sets (Exception.Error ignores the Detector attribution set afterwards).
type excMsg struct{ exc *isa.Exception }

func (m excMsg) String() string { return m.exc.Error() }

// haltMsg records a normal halt with the output printed so far. A halted
// state takes no further steps, so its output items are final.
type haltMsg struct{ out []machine.OutItem }

func (m haltMsg) String() string {
	return "halt (output " + strconv.Quote(machine.RenderOutput(m.out)) + ")"
}

// checkPassMsg records a CHECK that passed. Passing and firing are two types
// rather than one with a flag so that each holds a single pointer, which an
// interface stores without allocating.
type checkPassMsg struct{ det *detector.Detector }

func (m checkPassMsg) String() string {
	return "detector " + strconv.FormatInt(m.det.ID, 10) + " passed: " + m.det.String()
}

// detectMsg records a CHECK that fired.
type detectMsg struct{ det *detector.Detector }

func (m detectMsg) String() string {
	return "detector " + strconv.FormatInt(m.det.ID, 10) + " fired: " + m.det.String()
}
