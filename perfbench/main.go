// Command perfbench is the repository's benchmark. It runs one of four paper
// workloads for a fixed wall time, checks every pass's outputs against
// references, and prints one JSON result line: the end-to-end metrics of
// BENCHMARK.json with --trace 0, or the per-layer metrics with --trace 1.
//
// The workloads (see workloads.go) are the exhaustive tcas register sweep
// with elision, the Section 6.4 replace study with state merging, and the
// Section 6.2 tcas study drained by two workers through a loopback /v1
// service; the traced run also probes the concrete layers on the first
// Table 2 campaign. Every layer is measured from
// outside: the benchmark times calls into the public functions of each
// internal package and reads the counts their reports carry; the program
// itself is not instrumented.
//
// Run it from the repository root through the wrapper, which builds it from
// the checkout's sources first:
//
//	bash perfbench/run.sh --workload tcas-sweep --seed 2008 --seconds 10 --trace 0
//
// The default seed, 2008, reproduces the paper's inputs; any other seed
// draws generated inputs of the same shape (see inputs.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// paperSeed is the seed that reproduces the paper's inputs (DSN 2008, also
// the seed of the paper's Table 2 random value draw).
const paperSeed = 2008

type metricDef struct {
	name, unit, better string
	// bound is the share by which an end-to-end metric may worsen before a
	// change counts as a regression (0 for per-layer metrics).
	bound float64
}

// endToEnd are the metrics a user of the system sees, printed with --trace 0.
// report_s_p50 is the median pass (see runTimed for why the median) and
// injections_per_s derives from it. The concrete speed of the golden
// execution is not among them: no workload's user waits on it, and the
// traced run reports it as machine.ns_per_instr. failed_frac is reported as
// its complement success_frac, so the metric is never 0; the failure count
// itself is the result's "failed" field.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"report_s_p50", "s", "lower", 0.25},
	{"injections_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"tasks_completed", "count", "higher", 0.05},
	{"success_frac", "frac", "higher", 0.01},
}

// perLayer are the per-layer metrics printed with --trace 1. A layer the
// workload does not load reports 0.
var perLayer = []metricDef{
	{"asm.assemble_ms", "ms", "lower", 0},
	{"faults.injections", "count", "higher", 0},
	{"machine.ns_per_instr", "ns", "lower", 0},
	{"machine.new_ns", "ns", "lower", 0},
	{"machine.allocs_per_run", "count", "lower", 0},
	{"simplescalar.fault_us_p50", "us", "lower", 0},
	{"simplescalar.fault_us_p99", "us", "lower", 0},
	{"simplescalar.instrs_per_fault", "count", "lower", 0},
	{"simplescalar.crash_frac", "frac", "lower", 0},
	{"symexec.ns_per_step", "ns", "lower", 0},
	{"symexec.allocs_per_step", "count", "lower", 0},
	{"symexec.clone_ns", "ns", "lower", 0},
	{"symexec.keyhash_ns", "ns", "lower", 0},
	{"symexec.forks_cmp", "count", "lower", 0},
	{"symexec.forks_control", "count", "lower", 0},
	{"symexec.forks_load", "count", "lower", 0},
	{"symexec.forks_store", "count", "lower", 0},
	{"symexec.forks_divisor", "count", "lower", 0},
	{"symexec.dedup_hits", "count", "higher", 0},
	{"symexec.watchdog_truncations", "count", "lower", 0},
	{"symexec.max_frontier", "count", "lower", 0},
	{"symbolic.satisfiable_ns", "ns", "lower", 0},
	{"symbolic.solver_prunes", "count", "higher", 0},
	{"symbolic.intern_hits", "count", "higher", 0},
	{"symbolic.intern_misses", "count", "lower", 0},
	{"checker.injection_ms_p50", "ms", "lower", 0},
	{"checker.injection_ms_p99", "ms", "lower", 0},
	{"checker.states", "count", "lower", 0},
	{"checker.ns_per_state", "ns", "lower", 0},
	{"checker.allocs_per_state", "count", "lower", 0},
	{"checker.findings", "count", "higher", 0},
	{"checker.injections_explored", "count", "lower", 0},
	{"checker.injections_summarized", "count", "higher", 0},
	{"checker.injections_pruned", "count", "higher", 0},
	{"checker.states_merged", "count", "higher", 0},
	{"checker.steps_elided", "count", "higher", 0},
	{"checker.cycles_accelerated", "count", "higher", 0},
	{"summary.build_cold_ms", "ms", "lower", 0},
	{"summary.build_warm_ms", "ms", "lower", 0},
	{"summary.functions", "count", "higher", 0},
	{"analysis.analyze_ms", "ms", "lower", 0},
	{"cluster.task_ms_p50", "ms", "lower", 0},
	{"cluster.task_ms_p99", "ms", "lower", 0},
	{"cluster.busy_frac", "frac", "higher", 0},
	{"dist.claim_ms_p50", "ms", "lower", 0},
	{"dist.claim_ms_p99", "ms", "lower", 0},
	{"dist.complete_ms_p50", "ms", "lower", 0},
	{"dist.complete_ms_p99", "ms", "lower", 0},
	{"dist.rpcs_per_task", "count", "lower", 0},
	{"dist.bytes_per_task", "B", "lower", 0},
	{"dist.worker_idle_frac", "frac", "lower", 0},
	{"dist.tasks_from_cache", "count", "lower", 0},
	{"dist.duplicates", "count", "lower", 0},
	{"dist.abandoned", "count", "lower", 0},
	{"self.bench_ms", "ms", "lower", 0},
	{"self.summary_ms", "ms", "lower", 0},
	{"self.checker_ms", "ms", "lower", 0},
	{"self.cluster_ms", "ms", "lower", 0},
	{"self.dist_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"bench.report_s_min", "s", "lower", 0},
	{"bench.report_s_p90", "s", "lower", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is printed before the result, so every result carries the
// machine and runtime it was measured on.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Nproc      string `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", paperSeed, "input seed (2008 reproduces the paper's inputs)")
		seconds = flag.Int("seconds", 10, "wall seconds of measured passes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	env := readEnvironment(*name, *seed, *seconds, *trace)
	if b, err := json.Marshal(env); err == nil {
		fmt.Printf("env %s\n", b)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		spans:    filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)),
	}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runTimed(ctx, cfg)
	}
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			// An output check failed: print the result with correct=false
			// so the failure is visible in the standard result format.
			res.Correct = false
			if b, jerr := json.Marshal(res); jerr == nil {
				fmt.Println(string(b))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func readEnvironment(name string, seed int64, seconds, trace int) environment {
	env := environment{
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       os.Getenv("GOGC"),
	}
	if env.GOGC == "" {
		prev := debug.SetGCPercent(-1)
		debug.SetGCPercent(prev)
		env.GOGC = fmt.Sprintf("unset (%d)", prev)
	}
	if b, err := exec.Command("nproc").Output(); err == nil {
		env.Nproc = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
