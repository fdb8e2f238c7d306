package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"symplfied/internal/analysis"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/machine"
	"symplfied/internal/simplescalar"
	"symplfied/internal/summary"
	"symplfied/internal/symexec"
)

// probeTarget is what the per-layer probes run on: the workload's own
// program (with its source, for the assembler), input and injections.
type probeTarget struct {
	name, source string
	prog         *isa.Program
	input        []int64
	watchdog     int
	// injections are the workload's symbolic injections; the symexec and
	// symbolic probes draw their states from the first ones that fork.
	injections []faults.Injection
	// faults is the workload's injection count.
	faults int
}

// timeMedianMs runs f reps times and returns the median wall milliseconds.
func timeMedianMs(reps int, f func()) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// genericProbes fills the per-layer metrics every workload measures on its
// own program and input: asm, faults, machine, symexec, symbolic, summary
// and analysis.
func genericProbes(t probeTarget, m map[string]float64) error {
	var perr error
	m["asm.assemble_ms"] = timeMedianMs(21, func() {
		if _, err := asm.Parse(t.name, t.source); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("assemble probe: %w", perr)
	}
	m["faults.injections"] = float64(t.faults)

	// machine: New and Run timed apart, on the golden execution.
	const runs = 1001
	var newNs, instrNs []float64
	a0 := mallocs()
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		mach := machine.New(t.prog, t.input, machine.Options{Watchdog: t.watchdog})
		t1 := time.Now()
		r := mach.Run()
		t2 := time.Now()
		if r.Status != machine.StatusHalted || r.Steps == 0 {
			return fmt.Errorf("machine probe: golden run %v", r.Status)
		}
		newNs = append(newNs, float64(t1.Sub(t0)))
		instrNs = append(instrNs, float64(t2.Sub(t1))/float64(r.Steps))
	}
	m["machine.allocs_per_run"] = float64(mallocs()-a0) / runs
	m["machine.new_ns"] = median(newNs)
	m["machine.ns_per_instr"] = median(instrNs)

	// symexec: the in-place deterministic stepper over the same execution.
	opts := symexec.DefaultOptions()
	opts.Watchdog = t.watchdog
	var stepNs []float64
	steps := 0
	a0 = mallocs()
	for i := 0; i < 201; i++ {
		st := symexec.NewState(t.prog, nil, t.input, opts)
		t0 := time.Now()
		n := 0
		for st.Running() {
			if !st.StepInPlace() {
				return fmt.Errorf("symexec probe: the fault-free execution forked at pc %d", st.PC)
			}
			n++
		}
		stepNs = append(stepNs, float64(time.Since(t0))/float64(n))
		steps += n
	}
	m["symexec.allocs_per_step"] = float64(mallocs()-a0) / float64(steps)
	m["symexec.ns_per_step"] = median(stepNs)

	// symexec clone and key hashing, and the symbolic satisfiability check,
	// on states of a forking injection's search.
	sample := probeStates(t, opts)
	if len(sample) == 0 {
		return fmt.Errorf("symexec probe: no injection of the workload forks")
	}
	m["symexec.clone_ns"] = perStateNs(sample, func(s *symexec.State) { _ = s.Clone() })
	var sink uint64
	m["symexec.keyhash_ns"] = perStateNs(sample, func(s *symexec.State) { sink += s.KeyHash() })
	m["symbolic.satisfiable_ns"] = perStateNs(sample, func(s *symexec.State) {
		if s.Sym.Satisfiable() {
			sink++
		}
	})

	probeSink = sink

	var funcs int
	m["summary.build_cold_ms"] = timeMedianMs(11, func() { funcs = summary.Build(t.prog, nil, nil).Stats.Functions })
	cache := summary.NewCache(0, nil)
	summary.Build(t.prog, nil, cache)
	m["summary.build_warm_ms"] = timeMedianMs(11, func() { summary.Build(t.prog, nil, cache) })
	m["summary.functions"] = float64(funcs)
	m["analysis.analyze_ms"] = timeMedianMs(11, func() { analysis.Analyze(t.prog, nil) })
	return nil
}

// probeSink keeps the probed calls' results live.
var probeSink uint64

// probeStates returns up to 256 states of the first workload injection
// whose search forks, in breadth-first order.
func probeStates(t probeTarget, opts symexec.Options) []*symexec.State {
	const want, maxSteps = 256, 4000
	for _, inj := range t.injections {
		mach := machine.New(t.prog, t.input, machine.Options{Watchdog: t.watchdog})
		if !mach.RunUntil(inj.PC, inj.Occurrence) {
			continue
		}
		st := symexec.FromMachine(mach, nil, opts)
		if consumed := mach.InputConsumed(); consumed < len(t.input) {
			st.SetInput(t.input[consumed:])
		}
		frontier, err := inj.Apply(st)
		if err != nil {
			continue
		}
		var sample []*symexec.State
		forked := false
		for i := 0; i < len(frontier) && i < maxSteps && len(sample) < want; i++ {
			succ := frontier[i].Successors()
			forked = forked || len(succ) > 1
			if forked {
				sample = append(sample, succ...)
			}
			frontier = append(frontier, succ...)
		}
		if forked && len(sample) >= 16 {
			if len(sample) > want {
				sample = sample[:want]
			}
			return sample
		}
	}
	return nil
}

// perStateNs is the mean nanoseconds of f per state, over several rounds of
// the sample; the median round is reported.
func perStateNs(sample []*symexec.State, f func(*symexec.State)) float64 {
	var rounds []float64
	for r := 0; r < 21; r++ {
		t0 := time.Now()
		for _, s := range sample {
			f(s)
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(len(sample)))
	}
	return median(rounds)
}

// concreteProbe measures the simplescalar and machine layers on the paper's
// first Table 2 campaign over the target: 6,253 concrete faults (the three
// extremes and seeded random values in the source and destination
// registers of every instruction), each run alone through
// simplescalar.RunOneCtx and timed. The per-fault classifications must
// tally exactly to simplescalar.RunResilient's report of the same campaign.
func concreteProbe(ctx context.Context, t probeTarget, seed int64, m map[string]float64) error {
	const faults, watchdog = 6253, 50_000
	points := len(simplescalar.EnumeratePoints(t.prog))
	classify := simplescalar.SingleValueClassifier(tcas.Unresolved, tcas.UpwardRA, tcas.DownwardRA)
	cfg := simplescalar.Config{
		Program:       t.prog,
		Input:         t.input,
		Watchdog:      watchdog,
		Classify:      classify,
		Seed:          seed,
		RandomPerReg:  max((faults+points-1)/points-3, 3),
		MaxInjections: faults,
	}
	tally := map[string]int{}
	var us []float64
	instrs := 0
	for _, inj := range simplescalar.Enumerate(cfg) {
		t0 := time.Now()
		r := simplescalar.RunOneCtx(ctx, cfg, inj)
		us = append(us, float64(time.Since(t0))/1e3)
		instrs += r.Steps
		tally[classify(r)]++
	}
	rep, err := simplescalar.RunResilient(ctx, cfg, simplescalar.Resilience{})
	if err != nil {
		return err
	}
	if rep.Total != faults || fmt.Sprint(tally) != fmt.Sprint(rep.Counts) {
		return checkFailf("per-fault RunOneCtx tallies %v differ from the %d-fault campaign's %v", tally, faults, rep.Counts)
	}
	m["simplescalar.fault_us_p50"] = percentile(us, 50)
	m["simplescalar.fault_us_p99"] = percentile(us, 99)
	m["simplescalar.instrs_per_fault"] = float64(instrs) / faults
	m["simplescalar.crash_frac"] = float64(rep.Counts[simplescalar.LabelCrash]) / faults
	return nil
}
