package symexec

import (
	"fmt"

	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symbolic"
	"symplfied/internal/trace"
)

// Successors computes the state's rewrite successors. A terminated state has
// none. Deterministic instructions yield one successor; instructions whose
// outcome depends on an erroneous value yield one successor per
// nondeterministic resolution, with path constraints recorded and
// unsatisfiable resolutions pruned (the false-positive elimination of
// Section 5.2).
func (s *State) Successors() []*State {
	if !s.Running() {
		return nil
	}
	if s.Steps >= s.Opts.Watchdog {
		c := s.Clone()
		c.raise(isa.ExcTimeout, fmt.Sprintf("watchdog after %d instructions", s.Steps))
		s.Stats.CountWatchdog()
		return []*State{c}
	}
	if !s.Prog.ValidPC(s.PC) {
		c := s.Clone()
		c.raise(isa.ExcIllegalInstr, fmt.Sprintf("fetch from %d", s.PC))
		return []*State{c}
	}
	in := s.Prog.At(s.PC)

	if bin, imm, ok := isa.ArithOp(in.Op); ok {
		return s.stepArith(in, bin, imm)
	}
	if cmp, imm, ok := isa.CmpForOp(in.Op); ok {
		return s.stepSetCmp(in, cmp, imm)
	}
	switch in.Op {
	case isa.OpMov:
		c := s.fork()
		op := c.regOperand(in.Rs)
		c.setReg(in.Rd, op.Val, op.Term, op.HasTerm)
		c.PC++
		return one(c)
	case isa.OpLi:
		c := s.fork()
		c.setReg(in.Rd, isa.Int(in.Imm), symbolic.Term{}, false)
		c.PC++
		return one(c)
	case isa.OpLui:
		c := s.fork()
		c.setReg(in.Rd, isa.Int(in.Imm<<16), symbolic.Term{}, false)
		c.PC++
		return one(c)
	case isa.OpLd:
		return s.stepLoad(in)
	case isa.OpSt:
		return s.stepStore(in)
	case isa.OpBeq, isa.OpBne, isa.OpBeqi, isa.OpBnei:
		return s.stepBranch(in)
	case isa.OpJmp:
		c := s.fork()
		c.PC = in.Target
		return one(c)
	case isa.OpJal:
		c := s.fork()
		c.setReg(isa.RegRA, isa.Int(int64(s.PC+1)), symbolic.Term{}, false)
		c.PC = in.Target
		return one(c)
	case isa.OpJr:
		return s.stepJr(in)
	case isa.OpRead:
		return s.stepRead(in)
	case isa.OpPrint:
		c := s.fork()
		v := c.Regs[in.Rd]
		if in.Rd == isa.RegZero {
			v = isa.Int(0)
		}
		c.Out = append(c.Out, machine.OutItem{Val: v})
		if v.IsErr() {
			c.note(trace.KindOutput, trace.Text("printed err"))
		}
		c.PC++
		return one(c)
	case isa.OpPrints:
		c := s.fork()
		c.Out = append(c.Out, machine.OutItem{IsStr: true, Str: in.Str})
		c.PC++
		return one(c)
	case isa.OpNop:
		c := s.fork()
		c.PC++
		return one(c)
	case isa.OpHalt:
		c := s.fork()
		c.Status = machine.StatusHalted
		c.note(trace.KindHalt, haltMsg{c.Out})
		return one(c)
	case isa.OpThrow:
		c := s.fork()
		c.raise(isa.ExcThrow, in.Str)
		return one(c)
	case isa.OpCheck:
		return s.stepCheck(in)
	}
	c := s.Clone()
	c.raise(isa.ExcIllegalInstr, fmt.Sprintf("unsupported opcode %s", in.Op))
	return one(c)
}

// fork clones the state and accounts one executed instruction.
func (s *State) fork() *State {
	c := s.Clone()
	c.Steps++
	return c
}

func one(c *State) []*State { return []*State{c} }

// constrainOperand conjoins "op cmp rhs" onto the path, returning false when
// the path becomes infeasible. Operands of unknown lineage yield no
// constraint (sound: both forks stay live, as in the paper's model).
func (s *State) constrainOperand(op symbolic.Operand, cmp isa.Cmp, rhs int64, why reason) bool {
	if op.Val.IsConcrete() {
		v, _ := op.Val.Concrete()
		return isa.EvalCmp(cmp, v, rhs)
	}
	if !op.HasTerm {
		return true
	}
	if !s.Sym.ConstrainTerm(op.Term, cmp, rhs) {
		return false
	}
	s.note(trace.KindConstraint, constraintMsg{why: why, term: op.Term, cmp: cmp, rhs: rhs})
	s.concretize()
	return true
}

// applyCmp conjoins "x cmp y" onto the path. It handles err-vs-concrete in
// both positions and err-vs-err over a shared root; err-vs-err over
// unrelated roots yields no constraint (the paper's over-approximation).
func (s *State) applyCmp(cmp isa.Cmp, x, y symbolic.Operand, why reason) bool {
	xc, xConc := x.Val.Concrete()
	yc, yConc := y.Val.Concrete()
	switch {
	case xConc && yConc:
		return isa.EvalCmp(cmp, xc, yc)
	case !xConc && yConc:
		return s.constrainOperand(x, cmp, yc, why)
	case xConc && !yConc:
		return s.constrainOperand(y, cmp.Swap(), xc, why)
	default:
		if x.HasTerm && y.HasTerm && x.Term.Root == y.Term.Root {
			diff, c, isConst, ok := x.Term.SubTerm(y.Term)
			if ok {
				if isConst {
					return isa.EvalCmp(cmp, c, 0)
				}
				return s.constrainOperand(symbolic.ErrOperand(diff), cmp, 0, why)
			}
		}
		if x.HasTerm && y.HasTerm {
			// Distinct roots: record a difference constraint when the
			// relation fits the difference-logic fragment.
			handled, sat := s.Sym.AddRel(x.Term, cmp, y.Term)
			if handled {
				if !sat {
					return false
				}
				s.note(trace.KindConstraint, relMsg{why: why, x: x.Term, y: y.Term, cmp: cmp})
			}
		}
		return true
	}
}

// forkCmp resolves "x cmp y", producing the surviving true- and false-case
// states (either may be nil after pruning). kind tags the fork in ExecStats
// (obs.ForkCmp for ordinary comparisons, obs.ForkDetector for CHECKs).
func (s *State) forkCmp(kind string, cmp isa.Cmp, x, y symbolic.Operand, why reason) (tState, fState *State) {
	switch symbolic.DecideCmp(cmp, x, y) {
	case symbolic.CmpTrue:
		return s.fork(), nil
	case symbolic.CmpFalse:
		return nil, s.fork()
	}
	t := s.fork()
	t.note(trace.KindFork, forkMsg{why, cmp})
	if !t.applyCmp(cmp, x, y, why) {
		t = nil
		s.Stats.CountPrune()
	}
	f := s.fork()
	f.note(trace.KindFork, forkMsg{why, cmp.Negate()})
	if !f.applyCmp(cmp.Negate(), x, y, why) {
		f = nil
		s.Stats.CountPrune()
	}
	if t != nil && f != nil {
		s.Stats.CountFork(kind)
	}
	return t, f
}

func (s *State) operandPair(in isa.Instr, imm bool) (x, y symbolic.Operand) {
	x = s.regOperand(in.Rs)
	if imm {
		y = symbolic.ConcreteOperand(in.Imm)
	} else {
		y = s.regOperand(in.Rt)
	}
	return x, y
}

func (s *State) stepArith(in isa.Instr, bin isa.BinOp, imm bool) []*State {
	x, y := s.operandPair(in, imm)
	res := symbolic.PropagateBin(bin, x, y, s.Opts.AffineTracking)
	switch {
	case res.DivZero:
		c := s.fork()
		c.raise(isa.ExcDivZero, "")
		return one(c)
	case res.ForkOnDivisor:
		// Paper: eq I / err = if isEqual(err, 0) then throw "div-zero" else err.
		var out []*State
		zero := s.fork()
		zero.note(trace.KindFork, trace.Text("divisor err: assume == 0"))
		if zero.constrainOperand(res.Divisor, isa.CmpEq, 0, fixed(divZeroCase)) {
			zero.raise(isa.ExcDivZero, "erroneous divisor assumed zero")
			out = append(out, zero)
		} else {
			s.Stats.CountPrune()
		}
		nz := s.fork()
		nz.note(trace.KindFork, trace.Text("divisor err: assume != 0"))
		if nz.constrainOperand(res.Divisor, isa.CmpNe, 0, fixed(divNonzeroCase)) {
			nz.setReg(in.Rd, isa.Err(), symbolic.Term{}, false)
			nz.PC++
			out = append(out, nz)
		} else {
			s.Stats.CountPrune()
		}
		if len(out) == 2 {
			s.Stats.CountFork(obs.ForkDivisor)
		}
		return out
	default:
		c := s.fork()
		c.setReg(in.Rd, res.Val, res.Term, res.HasTerm)
		c.PC++
		return one(c)
	}
}

func (s *State) stepSetCmp(in isa.Instr, cmp isa.Cmp, imm bool) []*State {
	x, y := s.operandPair(in, imm)
	t, f := s.forkCmp(obs.ForkCmp, cmp, x, y, reason{prog: s.Prog, pc: s.PC})
	var out []*State
	if t != nil {
		t.setReg(in.Rd, isa.Int(1), symbolic.Term{}, false)
		t.PC++
		out = append(out, t)
	}
	if f != nil {
		f.setReg(in.Rd, isa.Int(0), symbolic.Term{}, false)
		f.PC++
		out = append(out, f)
	}
	return out
}

func (s *State) stepBranch(in isa.Instr) []*State {
	x := s.regOperand(in.Rs)
	var y symbolic.Operand
	switch in.Op {
	case isa.OpBeq, isa.OpBne:
		y = s.regOperand(in.Rt)
	default:
		y = symbolic.ConcreteOperand(in.Imm)
	}
	cmp := isa.CmpEq
	if in.Op == isa.OpBne || in.Op == isa.OpBnei {
		cmp = isa.CmpNe
	}
	t, f := s.forkCmp(obs.ForkCmp, cmp, x, y, reason{prog: s.Prog, pc: s.PC})
	var out []*State
	if t != nil {
		t.PC = in.Target
		out = append(out, t)
	}
	if f != nil {
		f.PC++
		out = append(out, f)
	}
	return out
}

// definedAddrsSorted returns the defined memory addresses in order.
func (s *State) definedAddrsSorted() []int64 {
	addrs := make([]int64, 0, len(s.Mem))
	for a := range s.Mem {
		addrs = append(addrs, a)
	}
	sortInt64s(addrs)
	return addrs
}

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (s *State) stepLoad(in isa.Instr) []*State {
	base := s.regOperand(in.Rs)
	if bc, ok := base.Val.Concrete(); ok {
		addr := bc + in.Imm
		c := s.fork()
		op, defined := c.memOperand(addr)
		if !defined {
			c.raise(isa.ExcIllegalAddr, fmt.Sprintf("load from undefined %d", addr))
			return one(c)
		}
		c.setReg(in.Rt, op.Val, op.Term, op.HasTerm)
		c.PC++
		return one(c)
	}

	// Erroneous pointer (Section 5.2, memory-handling sub-model): either the
	// program "retrieves the contents of an arbitrary memory location or
	// throws an illegal-address exception".
	var out []*State

	exc := s.fork()
	exc.note(trace.KindFork, trace.Text("load through erroneous pointer: assume undefined address"))
	feasible := true
	for _, a := range s.definedAddrsSorted() {
		if !exc.constrainOperand(base, isa.CmpNe, a-in.Imm, fixed(addrNotDefined)) {
			feasible = false
			break
		}
	}
	if feasible {
		exc.raise(isa.ExcIllegalAddr, "load through erroneous pointer")
		out = append(out, exc)
	} else {
		s.Stats.CountPrune()
	}

	if s.Opts.SymbolicMem {
		c := s.fork()
		c.note(trace.KindFork, trace.Text("load through erroneous pointer: symbolic result"))
		c.setReg(in.Rt, isa.Err(), symbolic.Term{}, false)
		c.PC++
		out = append(out, c)
		s.countFan(obs.ForkLoad, len(out))
		return out
	}

	addrs := s.definedAddrsSorted()
	truncated := false
	if s.Opts.MaxMemTargets > 0 && len(addrs) > s.Opts.MaxMemTargets {
		addrs = addrs[:s.Opts.MaxMemTargets]
		truncated = true
	}
	for _, a := range addrs {
		if !s.feasibleEq(base, a-in.Imm) {
			s.Stats.CountPrune()
			continue
		}
		c := s.fork()
		if !c.constrainOperand(base, isa.CmpEq, a-in.Imm, fixed(loadResolves)) {
			s.Stats.CountPrune()
			continue
		}
		c.note(trace.KindFork, resolvedMsg{addr: a})
		op, _ := c.memOperand(a)
		c.setReg(in.Rt, op.Val, op.Term, op.HasTerm)
		c.PC++
		c.Truncated = c.Truncated || truncated
		out = append(out, c)
	}
	if truncated {
		s.Stats.CountFanout()
		for _, c := range out {
			c.Truncated = true
		}
	}
	s.countFan(obs.ForkLoad, len(out))
	return out
}

// feasibleEq reports whether conjoining "op == v" could leave the path
// satisfiable, without committing anything: the probe runs inside a
// constraint scope (symbolic.Store.Push/Pop) on the receiver's own store and
// rewinds before returning. The enumeration fan-outs (loads, stores, jr) ask
// this before paying for a full state clone, so infeasible candidates cost a
// scoped solver delta instead of a fork. The verdict matches what
// constrainOperand on a clone would return, since the clone's store content
// is identical.
func (s *State) feasibleEq(op symbolic.Operand, v int64) bool {
	if op.Val.IsConcrete() {
		c, _ := op.Val.Concrete()
		return c == v
	}
	if !op.HasTerm {
		return true
	}
	sc := s.Sym.Push()
	ok := s.Sym.ConstrainTerm(op.Term, isa.CmpEq, v)
	s.Sym.Pop(sc)
	return ok
}

// countFan records an n-way fan-out as n-1 forks of the given kind (so a
// plain two-way fork and a two-successor enumeration weigh the same).
func (s *State) countFan(kind string, n int) {
	for i := 1; i < n; i++ {
		s.Stats.CountFork(kind)
	}
}

func (s *State) stepStore(in isa.Instr) []*State {
	base := s.regOperand(in.Rs)
	val := s.regOperand(in.Rt)
	if bc, ok := base.Val.Concrete(); ok {
		c := s.fork()
		c.setMem(bc+in.Imm, val.Val, val.Term, val.HasTerm)
		c.PC++
		return one(c)
	}

	// Erroneous pointer: "either overwrites the contents of an arbitrary
	// memory location, or creates a new value in memory" (Section 5.2).
	var out []*State
	addrs := s.definedAddrsSorted()
	enumAddrs := addrs
	truncated := false
	if s.Opts.MaxMemTargets > 0 && len(enumAddrs) > s.Opts.MaxMemTargets {
		enumAddrs = enumAddrs[:s.Opts.MaxMemTargets]
		truncated = true
	}
	for _, a := range enumAddrs {
		if !s.feasibleEq(base, a-in.Imm) {
			s.Stats.CountPrune()
			continue
		}
		c := s.fork()
		if !c.constrainOperand(base, isa.CmpEq, a-in.Imm, fixed(storeResolves)) {
			s.Stats.CountPrune()
			continue
		}
		c.note(trace.KindFork, resolvedMsg{store: true, addr: a})
		c.setMem(a, val.Val, val.Term, val.HasTerm)
		c.PC++
		c.Truncated = c.Truncated || truncated
		out = append(out, c)
	}

	// New-location case: the store defines a word at an address the program
	// has not touched; since loads from undefined addresses fault anyway,
	// the write is unobservable through defined memory.
	fresh := s.fork()
	fresh.note(trace.KindFork, trace.Text("store through erroneous pointer: assume fresh location"))
	feasible := true
	for _, a := range addrs {
		if !fresh.constrainOperand(base, isa.CmpNe, a-in.Imm, fixed(addrNotPreviouslyDefined)) {
			feasible = false
			break
		}
	}
	if feasible {
		fresh.PC++
		fresh.Truncated = fresh.Truncated || truncated
		out = append(out, fresh)
	} else {
		s.Stats.CountPrune()
	}
	if truncated {
		s.Stats.CountFanout()
		for _, c := range out {
			c.Truncated = true
		}
	}
	s.countFan(obs.ForkStore, len(out))
	return out
}

func (s *State) stepJr(in isa.Instr) []*State {
	target := s.regOperand(in.Rs)
	if tc, ok := target.Val.Concrete(); ok {
		c := s.fork()
		c.PC = int(tc)
		return one(c)
	}

	// Erroneous control target (Section 5.2): "the program either jumps to
	// an arbitrary (but valid) code location or throws an illegal
	// instruction exception".
	var out []*State
	limit := s.Prog.Len()
	truncated := false
	if s.Opts.MaxControlTargets > 0 && limit > s.Opts.MaxControlTargets {
		limit = s.Opts.MaxControlTargets
		truncated = true
	}
	for pc := 0; pc < limit; pc++ {
		if !s.feasibleEq(target, int64(pc)) {
			s.Stats.CountPrune()
			continue
		}
		c := s.fork()
		if !c.constrainOperand(target, isa.CmpEq, int64(pc), fixed(controlTargetResolves)) {
			s.Stats.CountPrune()
			continue
		}
		c.note(trace.KindControl, controlMsg{prog: s.Prog, pc: pc})
		c.PC = pc
		c.Truncated = truncated
		out = append(out, c)
	}
	exc := s.fork()
	exc.note(trace.KindFork, trace.Text("erroneous control target: assume invalid code address"))
	exc.raise(isa.ExcIllegalInstr, "jump through erroneous target")
	exc.Truncated = truncated
	out = append(out, exc)
	if truncated {
		s.Stats.CountFanout()
	}
	s.countFan(obs.ForkControl, len(out))
	return out
}

func (s *State) stepRead(in isa.Instr) []*State {
	c := s.fork()
	if c.InPos >= len(c.In) {
		c.raise(isa.ExcThrow, "end of input")
		return one(c)
	}
	v := c.In[c.InPos]
	c.InPos++
	if n, ok := v.Concrete(); ok {
		c.setReg(in.Rd, isa.Int(n), symbolic.Term{}, false)
	} else {
		c.setReg(in.Rd, isa.Err(), symbolic.Term{}, false)
	}
	c.PC++
	return one(c)
}

func (s *State) stepCheck(in isa.Instr) []*State {
	det, ok := s.Dets.Lookup(in.Imm)
	if !ok {
		c := s.fork()
		c.raise(isa.ExcThrow, fmt.Sprintf("unknown detector %d", in.Imm))
		return one(c)
	}
	target, err := det.TargetOperand(s)
	if err != nil {
		c := s.fork()
		c.raise(isa.ExcThrow, err.Error())
		c.Exc.Detector = det.ID
		return one(c)
	}
	expr, err := det.EvalExpr(s, s.Opts.AffineTracking)
	if err != nil {
		c := s.fork()
		c.raise(isa.ExcThrow, err.Error())
		c.Exc.Detector = det.ID
		return one(c)
	}
	pass, fail := s.forkCmp(obs.ForkDetector, det.Cmp, target, expr, reason{prog: s.Prog, pc: s.PC})
	var out []*State
	if pass != nil {
		pass.note(trace.KindCheckPass, checkPassMsg{det})
		pass.PC++
		out = append(out, pass)
	}
	if fail != nil {
		fail.note(trace.KindDetect, detectMsg{det})
		fail.raise(isa.ExcDetected, fmt.Sprintf("detector %d: %s", det.ID, det))
		fail.Exc.Detector = det.ID
		out = append(out, fail)
	}
	return out
}
