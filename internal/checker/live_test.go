package checker

import (
	"context"
	"sync/atomic"
	"testing"

	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// TestLiveStatesExact checks the batched live states counter: the explorers
// publish their counts at the ctxCheckMask poll and on exit, so once RunCtx
// returns the counter has moved by exactly the report's TotalStates. It
// covers the plain and the merged explorer on completed, budget-exhausted,
// cancelled and panicked injections, swept by two workers.
func TestLiveStatesExact(t *testing.T) {
	cases := []struct {
		name  string
		setup func(cancel context.CancelFunc) Spec
		check func(t *testing.T, rep *Report)
	}{
		{
			name: "completed",
			setup: func(context.CancelFunc) Spec {
				spec := tcasExhaustiveSpec(2 * int(isa.NumRegs-1))
				spec.StateBudget = 100_000
				return spec
			},
			check: func(t *testing.T, rep *Report) {
				if rep.BudgetBlown > 0 || rep.Interrupted {
					t.Fatalf("run did not complete: %d budget-blown, interrupted %v", rep.BudgetBlown, rep.Interrupted)
				}
			},
		},
		{
			name: "budget-exhausted",
			setup: func(context.CancelFunc) Spec {
				spec := tcasExhaustiveSpec(2 * int(isa.NumRegs-1))
				spec.StateBudget = 37 // not a multiple of the flush cadence
				return spec
			},
			check: func(t *testing.T, rep *Report) {
				if rep.BudgetBlown == 0 {
					t.Fatal("no injection exhausted its budget")
				}
			},
		},
		{
			name: "cancelled",
			setup: func(cancel context.CancelFunc) Spec {
				spec := tcasExhaustiveSpec(1)
				// Two forking injections, each of which reaches a terminal
				// state with more of its frontier still to explore.
				used := faults.RegisterInjectionsUsed(spec.Program)
				spec.Injections = []faults.Injection{used[2], used[4]}
				spec.StateBudget = 100_000
				base := spec.Predicate.Match
				spec.Predicate.Match = func(s *symexec.State) bool {
					cancel() // fires on the first terminal state, mid-frontier
					return base(s)
				}
				return spec
			},
			check: func(t *testing.T, rep *Report) {
				for _, ir := range rep.PerInjection {
					if ir.Interrupted && ir.StatesExplored > 0 {
						return
					}
				}
				t.Fatal("no injection was interrupted mid-exploration")
			},
		},
		{
			name: "panicked",
			setup: func(context.CancelFunc) Spec {
				spec := tcasExhaustiveSpec(2 * int(isa.NumRegs-1))
				spec.StateBudget = 100_000
				var terminals atomic.Int32
				spec.Predicate.Match = func(*symexec.State) bool {
					if terminals.Add(1)%5 == 0 {
						panic("predicate failure")
					}
					return false
				}
				return spec
			},
			check: func(t *testing.T, rep *Report) {
				if rep.Panics == 0 {
					t.Fatal("no injection panicked")
				}
			},
		},
	}
	for _, merged := range []bool{false, true} {
		explorer := "plain"
		if merged {
			explorer = "merged"
		}
		for _, c := range cases {
			t.Run(explorer+"/"+c.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				spec := c.setup(cancel)
				spec.MergeStates = merged
				spec.Parallelism = 2

				before := liveStates.Value()
				rep, err := RunCtx(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				c.check(t, rep)
				if merged && rep.MergedInjections == 0 {
					t.Fatal("no injection was swept by the merged explorer")
				}
				if rep.TotalStates == 0 {
					t.Fatal("the run explored nothing")
				}
				if got := liveStates.Value() - before; got != int64(rep.TotalStates) {
					t.Errorf("live states counter moved by %d, report explored %d", got, rep.TotalStates)
				}
			})
		}
	}
}
