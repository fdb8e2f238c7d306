package checker

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"symplfied/internal/analysis"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// tcasExhaustiveSpec builds the acceptance-criteria campaign: the exhaustive
// (sources=false) register space — every architectural register at every
// instruction, the 800x32 shape the paper's Section 6.1 prunes — restricted
// to the first maxInjections entries to keep the test fast. The slice is
// pc-major, so a prefix still covers whole sites (every register at each
// included pc), which is what elision needs to show its savings.
func tcasExhaustiveSpec(maxInjections int) Spec {
	prog := tcas.Program()
	injections := faults.RegisterInjections(prog, false)
	if len(injections) > maxInjections {
		injections = injections[:maxInjections]
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 4000
	return Spec{
		Program:     prog,
		Input:       tcas.UpwardInput().Slice(),
		Injections:  injections,
		Exec:        exec,
		Predicate:   HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget: 1500,
		Dedup:       true,
	}
}

// stripSummaryMarkers clears the fields a summarized run legitimately adds,
// so the rest of the report can be compared byte-for-byte against a plain
// run.
func stripSummaryMarkers(rep *Report) {
	rep.Spec = nil
	rep.SummarizedInjections = 0
	for i := range rep.PerInjection {
		rep.PerInjection[i].Summarized = false
	}
}

// TestPruneDeadInjectionsTcasExhaustive is the acceptance-criteria test:
// on an exhaustive tcas register campaign, summaries prune (explore
// strictly fewer) injections — measured by the live state counter, the
// report tallies are deliberately identical — while producing the identical
// per-injection verdict set. Every dead-register injection is among those
// elided: liveness is the summaries' base case. The check is stronger than
// verdict identity: after removing the Summarized markers, the two reports
// are byte-identical as JSON — every outcome tally, finding, and exec stat
// matches.
func TestPruneDeadInjectionsTcasExhaustive(t *testing.T) {
	spec := tcasExhaustiveSpec(4 * int(isa.NumRegs-1)) // four whole sites
	spec.Parallelism = 1

	before := liveStates.Value()
	plain, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	plainStates := liveStates.Value() - before

	summarized := spec
	summarized.UseSummaries = true
	before = liveStates.Value()
	elidedBefore := liveSummarized.Value()
	sumRep, err := RunCtx(context.Background(), summarized)
	if err != nil {
		t.Fatalf("summarized run: %v", err)
	}
	sumStates := liveStates.Value() - before

	live := analysis.Analyze(spec.Program, spec.Detectors)
	dead := 0
	for _, ir := range sumRep.PerInjection {
		if live.DeadAt(ir.Injection.PC, ir.Injection.Loc.Reg) {
			dead++
			if !ir.Summarized {
				t.Errorf("%s lands in a dead register but was not summarized", ir.Injection)
			}
		}
	}
	if dead == 0 {
		t.Fatalf("no dead registers in the campaign; liveness should find some at every site")
	}
	if sumRep.SummarizedInjections <= dead {
		t.Errorf("summarized %d injections, want more than the %d dead ones", sumRep.SummarizedInjections, dead)
	}
	if got, want := liveSummarized.Value()-elidedBefore, int64(sumRep.SummarizedInjections)-summarizedSites(sumRep); got != want {
		t.Errorf("live summarized counter = %d, want %d (report count %d minus one representative per site)",
			got, want, sumRep.SummarizedInjections)
	}
	if sumStates >= plainStates {
		t.Errorf("summarized run explored %d states, plain %d: elision saved nothing", sumStates, plainStates)
	}
	if len(sumRep.PerInjection) != len(spec.Injections) {
		t.Fatalf("summarized run reported %d of %d injections: elision must classify, not drop",
			len(sumRep.PerInjection), len(spec.Injections))
	}

	// Per-injection verdicts (and everything else) identical.
	stripSummaryMarkers(plain)
	stripSummaryMarkers(sumRep)
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	sumJSON, err := json.Marshal(sumRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, sumJSON) {
		for i := range plain.PerInjection {
			a, b := plain.PerInjection[i], sumRep.PerInjection[i]
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Errorf("first divergence at injection %d (%s):\nplain:      %s\nsummarized: %s", i, a.Injection, aj, bj)
				break
			}
		}
		t.Fatalf("summarized report differs from plain beyond the Summarized markers")
	}
}

// summarizedSites counts distinct breakpoints among the report's summarized
// injections: each contributes one representative exploration, so the live
// elision counter runs one short of the report's Summarized count per site.
func summarizedSites(rep *Report) int64 {
	sites := map[siteKey]bool{}
	for _, ir := range rep.PerInjection {
		if ir.Summarized {
			sites[site(ir.Injection)] = true
		}
	}
	return int64(len(sites))
}

// TestPruneParallelDeterminism checks the racing-representative case: with a
// worker pool, whichever benign injection reaches a site first becomes the
// representative, and the merged report must still be byte-identical to the
// sequential summarized run's.
func TestPruneParallelDeterminism(t *testing.T) {
	spec := tcasExhaustiveSpec(3 * int(isa.NumRegs-1))
	spec.UseSummaries = true
	assertParallelMatchesSequential(t, "tcas-summarized", spec)
}

// TestPruneCrossCheck runs a summarized campaign with the
// SYMPLFIED_CHECK_SUMMARIES assertion armed: every reused report is
// re-derived by a real exploration and any divergence panics. Surviving the
// run discharges the summary proof obligation — its liveness base case
// included — on this campaign.
func TestPruneCrossCheck(t *testing.T) {
	defer SetCheckSummaries(true)()

	spec := tcasExhaustiveSpec(2 * int(isa.NumRegs-1))
	spec.UseSummaries = true
	spec.Parallelism = 1
	rep, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("cross-checked summarized run: %v", err)
	}
	if rep.SummarizedInjections == 0 {
		t.Fatalf("cross-check exercised nothing: no injections were summarized")
	}
}

// TestBenignClassification pins what the summary proof is allowed to touch:
// transient register errors only — never memory, never permanent faults,
// never a register whose taint reaches an effect — and every dead register.
func TestBenignClassification(t *testing.T) {
	prog := tcas.Program()
	s := NewSummaryContext(prog, nil, nil)
	a := analysis.Analyze(prog, nil)

	// Find one dead and one effectful (pc, register) pair, scanning all pcs.
	var dead, live isa.Reg
	var deadPC, livePC int
	for pc := 0; pc < prog.Len() && (dead == 0 || live == 0); pc++ {
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if e, ok := s.Set().EffectOf(pc, r); ok && !e.Benign() && live == 0 {
				live, livePC = r, pc
			}
			if a.DeadAt(pc, r) && dead == 0 {
				dead, deadPC = r, pc
			}
		}
	}
	if dead == 0 || live == 0 {
		t.Fatalf("tcas should have both dead and effectful registers (dead=%v live=%v)", dead, live)
	}

	deadInj := faults.Injection{Class: faults.ClassRegister, PC: deadPC, Loc: isa.RegLoc(dead)}
	if !s.Benign(deadInj) {
		t.Errorf("dead transient register injection not benign")
	}
	if s.Benign(faults.Injection{Class: faults.ClassRegister, PC: livePC, Loc: isa.RegLoc(live)}) {
		t.Errorf("effectful register injection wrongly benign")
	}
	perm := deadInj
	perm.Permanent = true
	if s.Benign(perm) {
		t.Errorf("permanent fault wrongly benign: stuck-at faults survive the overwrite")
	}
	if s.Benign(faults.Injection{Class: faults.ClassMemory, PC: deadPC, Loc: isa.MemLoc(8)}) {
		t.Errorf("memory injection wrongly benign")
	}
	var nilCtx *SummaryContext
	if nilCtx.Benign(deadInj) {
		t.Errorf("nil context must classify nothing")
	}
}

// TestPruneReuseBudgetGuard pins the reuse conditions under a changing
// budget: a memo that completed within budget is reusable under any budget
// at least that large, and a budget-exhausted memo only under the exact
// budget it ran with.
func TestPruneReuseBudgetGuard(t *testing.T) {
	p := newSiteMemo()
	inj := faults.Injection{Class: faults.ClassRegister, PC: 3, Loc: isa.RegLoc(7)}

	clean := InjectionReport{Injection: inj, Activated: true, StatesExplored: 500}
	p.store(inj, clean, 1500)
	if _, ok := p.reuse(inj, 1500); !ok {
		t.Errorf("clean memo not reused under its own budget")
	}
	if _, ok := p.reuse(inj, 400); ok {
		t.Errorf("memo using 500 states reused under a 400-state budget")
	}

	inj2 := faults.Injection{Class: faults.ClassRegister, PC: 4, Loc: isa.RegLoc(7)}
	blown := InjectionReport{Injection: inj2, Activated: true, StatesExplored: 1500, BudgetExhausted: true}
	p.store(inj2, blown, 1500)
	if _, ok := p.reuse(inj2, 1500); !ok {
		t.Errorf("budget-exhausted memo not reused under the same budget")
	}
	if _, ok := p.reuse(inj2, 2000); ok {
		t.Errorf("budget-exhausted memo reused under a larger budget: the exploration would differ")
	}

	inj3 := faults.Injection{Class: faults.ClassRegister, PC: 5, Loc: isa.RegLoc(7)}
	found := InjectionReport{Injection: inj3, Activated: true, Findings: []Finding{{Injection: inj3}}}
	p.store(inj3, found, 1500)
	if _, ok := p.reuse(inj3, 1500); ok {
		t.Errorf("memo with findings reused: findings name the injected location and cannot be rewritten")
	}
}
