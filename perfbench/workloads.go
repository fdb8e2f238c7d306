package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/obs"
	"symplfied/internal/symexec"
)

// workloads maps each workload name to its constructor. The one-line reason
// each was chosen is recorded in BENCHMARK.json. The Table 2 concrete
// campaigns are not a workload of their own: they allocate ~150 MB and run
// ~55 GCs per pass, and on a shared 2-vCPU VM other tenants' load moved
// their fastest pass by 26-63% (interquartile share) across ten runs, more
// than any bound allows; the concrete layers are probed in the traced
// tcas-sweep run instead (see concreteProbe).
var workloads = map[string]func(seed int64) (workload, error){
	"tcas-sweep":    newTcasSweep,
	"replace-study": newReplaceStudy,
	"tcas-fleet":    newTcasFleet,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, seed int64) (workload, error) {
	return workloads[name](seed)
}

// digestJSON fingerprints v's JSON encoding.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// sameJSON reports whether a and b encode to the same JSON.
func sameJSON(a, b any) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && string(x) == string(y)
}

// execCounts are the deterministic exploration counts of a sweep, named as
// the per-layer metrics.
func execCounts(states, findings, injections, summarized, pruned int, e obs.ExecStats) map[string]float64 {
	return map[string]float64{
		"checker.states":                float64(states),
		"checker.findings":              float64(findings),
		"checker.injections_explored":   float64(injections - summarized - pruned),
		"checker.injections_summarized": float64(summarized),
		"checker.injections_pruned":     float64(pruned),
		"checker.states_merged":         float64(e.StatesMerged),
		"checker.steps_elided":          float64(e.StepsElided),
		"checker.cycles_accelerated":    float64(e.CyclesAccelerated),
		"symexec.forks_cmp":             float64(e.ForksCmp),
		"symexec.forks_control":         float64(e.ForksControl),
		"symexec.forks_load":            float64(e.ForksLoad),
		"symexec.forks_store":           float64(e.ForksStore),
		"symexec.forks_divisor":         float64(e.ForksDivisor),
		"symexec.dedup_hits":            float64(e.DedupHits),
		"symexec.watchdog_truncations":  float64(e.WatchdogTruncations),
		"symexec.max_frontier":          float64(e.MaxFrontier),
		"symbolic.solver_prunes":        float64(e.SolverPrunes),
	}
}

// goldenOutput runs the fault-free execution and returns its output.
func goldenOutput(prog *isa.Program, input []int64, watchdog int) ([]machine.OutItem, error) {
	r := machine.New(prog, input, machine.Options{Watchdog: watchdog}).Run()
	if r.Status != machine.StatusHalted {
		return nil, fmt.Errorf("golden run %v (%v)", r.Status, r.Exception)
	}
	return r.Output, nil
}

// isUpward reports whether an output is the single advisory 1.
func isUpward(out []machine.OutItem) bool {
	vals := machine.OutputValues(out)
	if len(vals) != 1 {
		return false
	}
	v, ok := vals[0].Concrete()
	return ok && v == tcas.UpwardRA
}

// ---------------------------------------------------------------------------
// tcas-sweep: the exhaustive tcas register space (every register at every
// instruction) through checker.RunCtx with summary elision and liveness
// pruning on, sequentially.

const (
	sweepWatchdog = 4_000
	sweepBudget   = 500
)

type tcasSweep struct {
	seed  int64
	input tcas.Inputs
	prog  *isa.Program
	spec  checker.Spec
	// plainCanon is the canonical digest of the same sweep with elision
	// off; every pass must reproduce it once elision markers are dropped.
	plainCanon string
	// first is the first pass's report; traced passes must equal it entry
	// by entry.
	first []checker.InjectionReport
}

func newTcasSweep(seed int64) (workload, error) {
	in, err := tcasInput(seed)
	if err != nil {
		return nil, err
	}
	return &tcasSweep{seed: seed, input: in}, nil
}

func (w *tcasSweep) setup(context.Context) error {
	unit, err := asm.Parse("tcas", tcas.Source)
	if err != nil {
		return err
	}
	w.prog = unit.Program
	input := w.input.Slice()
	out, err := goldenOutput(w.prog, input, sweepWatchdog)
	if err != nil {
		return err
	}
	if !isUpward(out) {
		return fmt.Errorf("tcas golden output %q, want the upward advisory", machine.RenderOutput(out))
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = sweepWatchdog
	w.spec = checker.Spec{
		Program:             w.prog,
		Input:               input,
		Injections:          faults.RegisterInjections(w.prog, false),
		Exec:                exec,
		Predicate:           checker.HaltedOutputOtherThan(tcas.UpwardRA),
		StateBudget:         sweepBudget,
		Parallelism:         1,
		UseSummaries:        true,
		PruneDeadInjections: true,
	}
	return nil
}

func (w *tcasSweep) close() {}

func (w *tcasSweep) reference(ctx context.Context) error {
	if got := tcas.Oracle(w.input); got != tcas.UpwardRA {
		return fmt.Errorf("tcas oracle advisory %d, want %d", got, tcas.UpwardRA)
	}
	plain := w.spec
	plain.UseSummaries = false
	plain.PruneDeadInjections = false
	rep, err := checker.RunCtx(ctx, plain)
	if err != nil {
		return err
	}
	w.plainCanon, err = canonicalSweep(rep.PerInjection)
	return err
}

// canonicalSweep digests the per-injection reports with the elision
// markers dropped: the one legitimate difference between an elided sweep
// and a plain one.
func canonicalSweep(irs []checker.InjectionReport) (string, error) {
	canon := make([]checker.InjectionReport, len(irs))
	for i, ir := range irs {
		ir.Pruned = false
		ir.Summarized = false
		canon[i] = ir
	}
	return digestJSON(canon)
}

func (w *tcasSweep) pass(ctx context.Context, tr *tracer, parent int) (passOut, error) {
	var rep *checker.Report
	t0 := time.Now()
	if tr == nil {
		var err error
		if rep, err = checker.RunCtx(ctx, w.spec); err != nil {
			return passOut{}, err
		}
	} else {
		// The traced pass is RunCtx's sequential sweep, made of the same
		// public calls so each injection gets its own span.
		spec := w.spec
		id := tr.begin(parent, "summary", "Ensure")
		spec.EnsurePrune()
		spec.EnsureSummaries()
		spec.EnsureMerge()
		tr.end(id)
		rep = checker.NewReport(&spec)
		for _, inj := range spec.Injections {
			id := tr.begin(parent, "checker", "RunInjectionCtx")
			ir, err := checker.RunInjectionCtx(ctx, spec, inj)
			tr.end(id)
			if err != nil {
				return passOut{}, fmt.Errorf("%s: %w", inj, err)
			}
			rep.Add(ir)
		}
	}
	elapsed := time.Since(t0)
	digest, err := digestJSON(rep.PerInjection)
	if err != nil {
		return passOut{}, err
	}
	n := len(rep.PerInjection)
	out := passOut{
		start:      t0,
		elapsed:    elapsed,
		injections: n,
		completed:  n - rep.BudgetBlown,
		attempted:  len(w.spec.Injections),
		failed:     rep.Errors + rep.Panics + rep.TimedOuts + len(w.spec.Injections) - n,
		digest:     digest,
		counts:     execCounts(rep.TotalStates, len(rep.Findings), n, rep.SummarizedInjections, rep.PrunedInjections, rep.Exec),
	}
	if tr == nil && w.first == nil {
		// The first pass is checked against the elision-off reference;
		// every later pass must reproduce its digest, so this covers them.
		w.first = rep.PerInjection
		canon, err := canonicalSweep(rep.PerInjection)
		if err != nil {
			return out, err
		}
		if canon != w.plainCanon {
			return out, checkFailf("elided sweep verdicts/findings differ from the plain sweep's (%s vs %s)", canon, w.plainCanon)
		}
	}
	if tr != nil {
		for i := range rep.PerInjection {
			if !sameJSON(rep.PerInjection[i], w.first[i]) {
				return out, checkFailf("traced RunInjectionCtx(%s) differs from RunCtx's report entry", rep.PerInjection[i].Injection)
			}
		}
	}
	return out, nil
}

func (w *tcasSweep) check(p *passOut) error {
	if p.failed > 0 {
		return checkFailf("%d injections failed", p.failed)
	}
	if p.counts["checker.injections_summarized"]+p.counts["checker.injections_pruned"] == 0 {
		return checkFailf("no injection was elided")
	}
	return nil
}

func (w *tcasSweep) target() probeTarget {
	return probeTarget{
		name: "tcas", source: tcas.Source, prog: w.prog, input: w.spec.Input,
		watchdog: sweepWatchdog, injections: w.spec.Injections, faults: len(w.spec.Injections),
	}
}

func (w *tcasSweep) probe(ctx context.Context, _ *tracer, m map[string]float64) error {
	return concreteProbe(ctx, w.target(), w.seed, m)
}

// ---------------------------------------------------------------------------
// replace-study: the Section 6.4 study through cluster.RunCtx with state
// merging on, two cluster workers.

const (
	replaceTasks       = 312
	replaceTaskBudget  = 60_000
	replaceWatchdog    = 120_000
	replaceMaxFindings = 10
	replaceWorkers     = 2
)

type replaceStudy struct {
	triple replaceTriple
	prog   *isa.Program
	input  []int64
	spec   checker.Spec
	// injections are the paper's register-error space (the registers each
	// instruction reads), split into the study's tasks.
	injections []faults.Injection
	tasks      []cluster.Task
	// The last traced pass's merged spec and per-task injection reports,
	// replayed injection by injection by the probe.
	tracedSpec checker.Spec
	tracedIRs  [][]checker.InjectionReport
}

func newReplaceStudy(seed int64) (workload, error) {
	t, err := replaceInput(seed)
	if err != nil {
		return nil, err
	}
	return &replaceStudy{triple: t}, nil
}

func (w *replaceStudy) setup(context.Context) error {
	unit, err := asm.Parse("replace", replace.Source)
	if err != nil {
		return err
	}
	w.prog = unit.Program
	w.input = replace.Input(w.triple.pattern, w.triple.substitution, w.triple.line)
	out, err := goldenOutput(w.prog, w.input, 2_000_000)
	if err != nil {
		return err
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = replaceWatchdog
	w.spec = checker.Spec{
		Program:     w.prog,
		Input:       w.input,
		Exec:        exec,
		Predicate:   checker.IncorrectOutput(machine.RenderOutput(out)),
		MergeStates: true,
	}
	w.injections = faults.RegisterInjections(w.prog, true)
	w.tasks = cluster.Split(w.injections, replaceTasks)
	return nil
}

func (w *replaceStudy) close() {}

func (w *replaceStudy) reference(context.Context) error {
	want, ok := replace.Oracle(w.triple.pattern, w.triple.substitution, w.triple.line)
	if !ok {
		return fmt.Errorf("replace oracle rejects %q", w.triple)
	}
	out, err := goldenOutput(w.prog, w.input, 2_000_000)
	if err != nil {
		return err
	}
	var got []int64
	for _, v := range machine.OutputValues(out) {
		c, ok := v.Concrete()
		if !ok {
			return fmt.Errorf("replace golden output holds err")
		}
		got = append(got, c)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("replace golden output %v, oracle %v", got, want)
	}
	return nil
}

func (w *replaceStudy) pass(ctx context.Context, tr *tracer, parent int) (passOut, error) {
	cfg := cluster.Config{Workers: replaceWorkers, TaskStateBudget: replaceTaskBudget, MaxFindingsPerTask: replaceMaxFindings}
	var reports []cluster.TaskReport
	mark := 0
	if tr != nil {
		mark = tr.mark()
	}
	t0 := time.Now()
	if tr == nil {
		reports = cluster.RunCtx(ctx, w.spec, w.tasks, cfg)
	} else {
		// cluster.RunCtx's pool, made of the same public calls so each task
		// gets its own span.
		spec := w.spec
		spec.Parallelism = 1
		spec.EnsurePrune()
		spec.EnsureSummaries()
		spec.EnsureMerge()
		reports = make([]cluster.TaskReport, len(w.tasks))
		irs := make([][]checker.InjectionReport, len(w.tasks))
		next := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < replaceWorkers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range next {
					id := tr.begin(parent, "cluster", "RunTaskCtx")
					reports[idx], irs[idx] = cluster.RunTaskCtx(ctx, spec, w.tasks[idx], replaceTaskBudget, replaceMaxFindings)
					tr.end(id)
				}
			}()
		}
		for i := range w.tasks {
			next <- i
		}
		close(next)
		wg.Wait()
		w.tracedSpec, w.tracedIRs = spec, irs
	}
	elapsed := time.Since(t0)
	sum := cluster.Summarize(reports)
	digest, err := digestJSON(reports)
	if err != nil {
		return passOut{}, err
	}
	failed := sum.Panics
	for _, r := range reports {
		if r.Failure != "" || r.Interrupted {
			failed++
		}
	}
	out := passOut{
		start:      t0,
		elapsed:    elapsed,
		injections: sum.TotalInjections,
		completed:  sum.Completed,
		attempted:  len(w.tasks),
		failed:     failed,
		digest:     digest,
		counts:     execCounts(sum.TotalStates, len(sum.Findings), sum.TotalInjections, sum.Summarized, sum.Pruned, sum.Exec),
	}
	if tr != nil {
		var busy time.Duration
		for _, s := range tr.spans(mark) {
			if s.Layer == "cluster" {
				busy += s.dur()
			}
		}
		out.observed = map[string]float64{"cluster.busy_frac": float64(busy) / float64(replaceWorkers*elapsed)}
	}
	return out, nil
}

func (w *replaceStudy) check(p *passOut) error {
	if p.failed > 0 {
		return checkFailf("%d replace tasks or injections failed", p.failed)
	}
	if p.completed == 0 || p.counts["checker.findings"] == 0 {
		return checkFailf("replace study completed %d tasks with %v findings", p.completed, p.counts["checker.findings"])
	}
	return nil
}

func (w *replaceStudy) target() probeTarget {
	return probeTarget{
		name: "replace", source: replace.Source, prog: w.prog, input: w.input,
		watchdog: replaceWatchdog, injections: w.injections, faults: len(w.injections),
	}
}

// probe replays every injection the last traced pass explored through
// checker.RunInjectionCtx, with the state budget and finding cap each had
// left within its task, timing each call and requiring each result to
// equal the report entry cluster.RunTaskCtx returned.
func (w *replaceStudy) probe(ctx context.Context, tr *tracer, _ map[string]float64) error {
	replay := tr.begin(0, "bench", "replay")
	defer tr.end(replay)
	for ti, task := range w.tasks {
		remaining, findings := replaceTaskBudget, 0
		for j, want := range w.tracedIRs[ti] {
			spec := w.tracedSpec
			spec.StateBudget = remaining
			spec.MaxFindings = replaceMaxFindings - findings
			id := tr.begin(replay, "checker", "RunInjectionCtx")
			got, err := checker.RunInjectionCtx(ctx, spec, task.Injections[j])
			tr.end(id)
			if err != nil {
				return err
			}
			if !sameJSON(got, want) {
				return checkFailf("replayed RunInjectionCtx(%s) differs from task %d's report entry", task.Injections[j], ti)
			}
			remaining -= got.StatesExplored
			findings += len(got.Findings)
		}
	}
	return nil
}
