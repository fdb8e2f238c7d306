package symexec

import (
	"fmt"

	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/symbolic"
	"symplfied/internal/trace"
)

// StepInPlace executes one instruction by mutating the receiver when the
// step is deterministic (a single successor), returning true. It returns
// false — leaving the state untouched — when the step would fork, in which
// case the caller must expand with Successors. Callers must own the state
// exclusively (the checker's frontier states qualify).
//
// This is a performance fast path: a deterministic step avoids cloning the
// register file, memory and constraint store. Semantics are identical to
// Successors returning exactly one running/terminal state; the equivalence
// is pinned by TestStepInPlaceAgreesWithSuccessors.
func (s *State) StepInPlace() bool {
	if !s.Running() {
		return false
	}
	if s.Steps >= s.Opts.Watchdog {
		s.raise(isa.ExcTimeout, fmt.Sprintf("watchdog after %d instructions", s.Steps))
		s.Stats.CountWatchdog()
		return true
	}
	if !s.Prog.ValidPC(s.PC) {
		s.raise(isa.ExcIllegalInstr, fmt.Sprintf("fetch from %d", s.PC))
		return true
	}
	in := s.Prog.At(s.PC)

	if bin, imm, ok := isa.ArithOp(in.Op); ok {
		x, y := s.operandPair(in, imm)
		res := symbolic.PropagateBin(bin, x, y, s.Opts.AffineTracking)
		if res.ForkOnDivisor {
			return false
		}
		s.Steps++
		if res.DivZero {
			s.raise(isa.ExcDivZero, "")
			return true
		}
		s.setReg(in.Rd, res.Val, res.Term, res.HasTerm)
		s.PC++
		return true
	}

	if cmp, imm, ok := isa.CmpForOp(in.Op); ok {
		x, y := s.operandPair(in, imm)
		switch symbolic.DecideCmp(cmp, x, y) {
		case symbolic.CmpTrue:
			s.Steps++
			s.setReg(in.Rd, isa.Int(1), symbolic.Term{}, false)
			s.PC++
			return true
		case symbolic.CmpFalse:
			s.Steps++
			s.setReg(in.Rd, isa.Int(0), symbolic.Term{}, false)
			s.PC++
			return true
		}
		return false
	}

	switch in.Op {
	case isa.OpMov:
		op := s.regOperand(in.Rs)
		s.Steps++
		s.setReg(in.Rd, op.Val, op.Term, op.HasTerm)
		s.PC++
		return true
	case isa.OpLi:
		s.Steps++
		s.setReg(in.Rd, isa.Int(in.Imm), symbolic.Term{}, false)
		s.PC++
		return true
	case isa.OpLui:
		s.Steps++
		s.setReg(in.Rd, isa.Int(in.Imm<<16), symbolic.Term{}, false)
		s.PC++
		return true
	case isa.OpLd:
		base := s.regOperand(in.Rs)
		bc, conc := base.Val.Concrete()
		if !conc {
			return false
		}
		s.Steps++
		addr := bc + in.Imm
		op, defined := s.memOperand(addr)
		if !defined {
			s.raise(isa.ExcIllegalAddr, fmt.Sprintf("load from undefined %d", addr))
			return true
		}
		s.setReg(in.Rt, op.Val, op.Term, op.HasTerm)
		s.PC++
		return true
	case isa.OpSt:
		base := s.regOperand(in.Rs)
		bc, conc := base.Val.Concrete()
		if !conc {
			return false
		}
		val := s.regOperand(in.Rt)
		s.Steps++
		s.setMem(bc+in.Imm, val.Val, val.Term, val.HasTerm)
		s.PC++
		return true
	case isa.OpBeq, isa.OpBne, isa.OpBeqi, isa.OpBnei:
		x := s.regOperand(in.Rs)
		var y symbolic.Operand
		if in.Op == isa.OpBeq || in.Op == isa.OpBne {
			y = s.regOperand(in.Rt)
		} else {
			y = symbolic.ConcreteOperand(in.Imm)
		}
		cmp := isa.CmpEq
		if in.Op == isa.OpBne || in.Op == isa.OpBnei {
			cmp = isa.CmpNe
		}
		switch symbolic.DecideCmp(cmp, x, y) {
		case symbolic.CmpTrue:
			s.Steps++
			s.PC = in.Target
			return true
		case symbolic.CmpFalse:
			s.Steps++
			s.PC++
			return true
		}
		return false
	case isa.OpJmp:
		s.Steps++
		s.PC = in.Target
		return true
	case isa.OpJal:
		s.Steps++
		s.setReg(isa.RegRA, isa.Int(int64(s.PC+1)), symbolic.Term{}, false)
		s.PC = in.Target
		return true
	case isa.OpJr:
		target := s.regOperand(in.Rs)
		tc, conc := target.Val.Concrete()
		if !conc {
			return false
		}
		s.Steps++
		s.PC = int(tc)
		return true
	case isa.OpRead:
		s.Steps++
		if s.InPos >= len(s.In) {
			s.raise(isa.ExcThrow, "end of input")
			return true
		}
		v := s.In[s.InPos]
		s.InPos++
		if n, ok := v.Concrete(); ok {
			s.setReg(in.Rd, isa.Int(n), symbolic.Term{}, false)
		} else {
			s.setReg(in.Rd, isa.Err(), symbolic.Term{}, false)
		}
		s.PC++
		return true
	case isa.OpPrint:
		s.Steps++
		v := s.Regs[in.Rd]
		if in.Rd == isa.RegZero {
			v = isa.Int(0)
		}
		s.Out = append(s.Out, machine.OutItem{Val: v})
		if v.IsErr() {
			s.note(trace.KindOutput, trace.Text("printed err"))
		}
		s.PC++
		return true
	case isa.OpPrints:
		s.Steps++
		s.Out = append(s.Out, machine.OutItem{IsStr: true, Str: in.Str})
		s.PC++
		return true
	case isa.OpNop:
		s.Steps++
		s.PC++
		return true
	case isa.OpHalt:
		s.Steps++
		s.Status = machine.StatusHalted
		s.note(trace.KindHalt, haltMsg{s.Out})
		return true
	case isa.OpThrow:
		s.Steps++
		s.raise(isa.ExcThrow, in.Str)
		return true
	case isa.OpCheck:
		return s.stepCheckInPlace(in)
	}
	return false
}

// stepCheckInPlace handles deterministic detector checks in place.
func (s *State) stepCheckInPlace(in isa.Instr) bool {
	det, ok := s.Dets.Lookup(in.Imm)
	if !ok {
		s.Steps++
		s.raise(isa.ExcThrow, fmt.Sprintf("unknown detector %d", in.Imm))
		return true
	}
	target, err := det.TargetOperand(s)
	if err != nil {
		s.Steps++
		s.raise(isa.ExcThrow, err.Error())
		s.Exc.Detector = det.ID
		return true
	}
	expr, err := det.EvalExpr(s, s.Opts.AffineTracking)
	if err != nil {
		s.Steps++
		s.raise(isa.ExcThrow, err.Error())
		s.Exc.Detector = det.ID
		return true
	}
	switch symbolic.DecideCmp(det.Cmp, target, expr) {
	case symbolic.CmpTrue:
		s.Steps++
		s.note(trace.KindCheckPass, checkPassMsg{det})
		s.PC++
		return true
	case symbolic.CmpFalse:
		s.Steps++
		s.note(trace.KindDetect, detectMsg{det})
		s.raise(isa.ExcDetected, fmt.Sprintf("detector %d: %s", det.ID, det))
		s.Exc.Detector = det.ID
		return true
	}
	return false
}
