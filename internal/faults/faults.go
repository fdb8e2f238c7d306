// Package faults implements SymPLFIED's error model (paper Sections 3.3 and
// 5.2): transient errors in registers, memory and computation, represented by
// replacing architectural values with the symbolic err at a breakpoint. The
// computation-error categories of Table 1 (instruction decoder, address/data
// bus, functional unit, instruction fetch) are reduced to err placements in
// the locations each category can corrupt, plus PC redirection for fetch
// errors — exactly the paper's "modeling procedure" column.
//
// An Injection is one element of a fault class: a breakpoint (static PC and
// dynamic occurrence) plus a manifestation. The enumerators generate the
// paper's campaigns, e.g. "err in each register used by each instruction,
// injected just before that instruction" (Section 6.1). Enumerators never
// drop provably benign injections: the exhaustive register space keeps every
// register at every instruction, and checker.Spec.UseSummaries elides the
// benign ones — dead registers included — while still reporting one verdict
// per injection, as the paper's tables tally.
package faults

import (
	"fmt"

	"symplfied/internal/isa"
	"symplfied/internal/symexec"
	"symplfied/internal/trace"
)

// Class identifies an error class (the user-selectable "class of hardware
// errors to be considered", Section 3.1).
type Class int

// Error classes.
const (
	// ClassRegister: transient error in a register file cell.
	ClassRegister Class = iota + 1
	// ClassMemory: transient error in a memory word (cache/memory bus
	// errors manifest here per Table 1).
	ClassMemory
	// ClassControl: instruction-fetch error; the PC is redirected to an
	// arbitrary but valid code location (Table 1, fetch mechanism row).
	ClassControl
	// ClassDecode: instruction-decoder error; one valid instruction turns
	// into another, modeled as err in the affected target locations
	// (Table 1, decoder row).
	ClassDecode
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassRegister:
		return "register"
	case ClassMemory:
		return "memory"
	case ClassControl:
		return "control"
	case ClassDecode:
		return "decode"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// DecodeKind refines ClassDecode per Table 1's decoder sub-rows.
type DecodeKind int

// Decode manifestations.
const (
	DecodeNone DecodeKind = iota
	// DecodeChangedTarget: an instruction writing to a destination has its
	// output target changed: err appears in both the original and the new
	// target.
	DecodeChangedTarget
	// DecodeNewTarget: an instruction with no target is replaced by one
	// with a target: err appears in the new, wrong target.
	DecodeNewTarget
	// DecodeLostTarget: an instruction with a destination is replaced by
	// one with no target (e.g. nop): err appears in the original target,
	// which retains its stale — now erroneous relative to the intended
	// computation — value.
	DecodeLostTarget
)

// String names the decode kind.
func (k DecodeKind) String() string {
	switch k {
	case DecodeNone:
		return "none"
	case DecodeChangedTarget:
		return "changed-target"
	case DecodeNewTarget:
		return "new-target"
	case DecodeLostTarget:
		return "lost-target"
	}
	return fmt.Sprintf("decode(%d)", int(k))
}

// Injection is one injectable fault.
type Injection struct {
	Class Class

	// PC is the breakpoint: the fault manifests just before the instruction
	// at PC executes (ensuring activation, Section 6.2 "Optimizations").
	PC int
	// Occurrence selects the dynamic occurrence of PC at which to inject
	// (1-based). 0 means 1.
	Occurrence int

	// Loc is the corrupted location for register/memory classes and the
	// original target for decode errors.
	Loc isa.Loc
	// DynamicLoadAddr, for ClassMemory, resolves Loc at injection time to
	// the address about to be read by the load instruction at PC.
	DynamicLoadAddr bool

	// Decode refines ClassDecode; NewLoc is the wrong target for
	// DecodeChangedTarget and DecodeNewTarget.
	Decode DecodeKind
	NewLoc isa.Loc

	// Permanent turns a register or memory error into a stuck-at fault:
	// the location holds the same unknown erroneous value for the rest of
	// the execution and writes to it are discarded. This implements the
	// paper's future-work extension (2) "modeling permanent errors in
	// hardware in addition to transient errors".
	Permanent bool
}

// String renders the injection for reports.
func (inj Injection) String() string {
	occ := inj.Occurrence
	if occ == 0 {
		occ = 1
	}
	kind := ""
	if inj.Permanent {
		kind = "permanent "
	}
	switch inj.Class {
	case ClassRegister:
		return fmt.Sprintf("%sregister error: err in %s before @%d (occurrence %d)", kind, inj.Loc, inj.PC, occ)
	case ClassMemory:
		if inj.DynamicLoadAddr {
			return fmt.Sprintf("memory error: err in word loaded at @%d (occurrence %d)", inj.PC, occ)
		}
		return fmt.Sprintf("memory error: err in %s before @%d (occurrence %d)", inj.Loc, inj.PC, occ)
	case ClassControl:
		return fmt.Sprintf("control error: PC redirected at @%d (occurrence %d)", inj.PC, occ)
	case ClassDecode:
		return fmt.Sprintf("decode error (%s): orig %s new %s at @%d (occurrence %d)", inj.Decode, inj.Loc, inj.NewLoc, inj.PC, occ)
	}
	return fmt.Sprintf("injection(class %d)", int(inj.Class))
}

// Apply manifests the injection on a symbolic state positioned at the
// breakpoint (state.PC == inj.PC), returning the resulting states. Control
// errors return one state per valid code location (the paper's
// nondeterministic PC redirection); all other classes return one state.
// The input state is not modified.
func (inj Injection) Apply(st *symexec.State) ([]*symexec.State, error) {
	if st.PC != inj.PC {
		return nil, fmt.Errorf("injection at @%d applied to state at @%d", inj.PC, st.PC)
	}
	switch inj.Class {
	case ClassRegister:
		if inj.Loc.IsMem || inj.Loc.Reg == isa.RegZero {
			return nil, fmt.Errorf("register injection needs a non-zero register, have %s", inj.Loc)
		}
		c := st.Clone()
		inj.manifest(c, inj.Loc)
		return []*symexec.State{c}, nil

	case ClassMemory:
		loc := inj.Loc
		if inj.DynamicLoadAddr {
			addr, err := loadAddr(st)
			if err != nil {
				return nil, err
			}
			loc = isa.MemLoc(addr)
		}
		if !loc.IsMem {
			return nil, fmt.Errorf("memory injection needs a memory location, have %s", loc)
		}
		c := st.Clone()
		inj.manifest(c, loc)
		return []*symexec.State{c}, nil

	case ClassControl:
		out := make([]*symexec.State, 0, st.Prog.Len())
		for pc := 0; pc < st.Prog.Len(); pc++ {
			if pc == st.PC {
				continue // redirection to the same location is the fault-free run
			}
			c := st.Clone()
			c.PC = pc
			c.Note(trace.KindControl, "fetch error: PC redirected from @%d to %s", inj.PC, st.Prog.Locate(pc))
			out = append(out, c)
		}
		return out, nil

	case ClassDecode:
		return inj.applyDecode(st)
	}
	return nil, fmt.Errorf("unknown injection class %d", int(inj.Class))
}

func (inj Injection) applyDecode(st *symexec.State) ([]*symexec.State, error) {
	c := st.Clone()
	switch inj.Decode {
	case DecodeChangedTarget:
		// err in the original and the new targets (Table 1 row 1).
		c.Inject(inj.Loc)
		c.Inject(inj.NewLoc)
	case DecodeNewTarget:
		// err in the new wrong target (Table 1 row 2).
		c.Inject(inj.NewLoc)
	case DecodeLostTarget:
		// err in the original target location (Table 1 row 3).
		c.Inject(inj.Loc)
	default:
		return nil, fmt.Errorf("decode injection needs a decode kind")
	}
	return []*symexec.State{c}, nil
}

// manifest places the fault into loc, transient or permanent.
func (inj Injection) manifest(st *symexec.State, loc isa.Loc) {
	if inj.Permanent {
		st.InjectPermanent(loc)
		return
	}
	st.Inject(loc)
}

// PermanentVariant returns copies of the injections with the Permanent flag
// set, for comparing transient and stuck-at campaigns over the same sites.
func PermanentVariant(injs []Injection) []Injection {
	out := make([]Injection, len(injs))
	copy(out, injs)
	for i := range out {
		out[i].Permanent = true
	}
	return out
}

// loadAddr computes the address about to be read by the load at st.PC.
func loadAddr(st *symexec.State) (int64, error) {
	if !st.Prog.ValidPC(st.PC) {
		return 0, fmt.Errorf("breakpoint @%d outside code", st.PC)
	}
	in := st.Prog.At(st.PC)
	if in.Op != isa.OpLd {
		return 0, fmt.Errorf("dynamic memory injection requires a load at @%d, have %s", st.PC, in.Op)
	}
	base := st.Regs[in.Rs]
	if in.Rs == isa.RegZero {
		base = isa.Int(0)
	}
	bc, ok := base.Concrete()
	if !ok {
		return 0, fmt.Errorf("load base register already erroneous at @%d", st.PC)
	}
	return bc + in.Imm, nil
}
