package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"symplfied/internal/symbolic"
)

type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration
	spans    string
}

// checkError marks a failed output check, as opposed to a benchmark or
// environment error.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// workload is one of the benchmark's paper workloads. A value is built from
// its seed-derived inputs; setup does the work a user pays before the first
// pass can start and is what setup_s times.
type workload interface {
	// setup loads the program, runs the golden execution, enumerates the
	// injections and starts whatever serves the passes.
	setup(ctx context.Context) error
	// close stops what setup started.
	close()
	// reference builds what the output checks compare against; untimed.
	reference(ctx context.Context) error
	// pass runs the workload once. With a tracer it records spans under the
	// pass span parent; without one it records nothing.
	pass(ctx context.Context, tr *tracer, parent int) (passOut, error)
	// check verifies one pass's outputs against the references.
	check(p *passOut) error
	// target is the program, input and injection list the per-layer probes
	// run on.
	target() probeTarget
	// probe adds the workload's own per-layer probes to m after the traced
	// passes.
	probe(ctx context.Context, tr *tracer, m map[string]float64) error
}

// passOut is what one pass produced.
type passOut struct {
	// start and elapsed delimit the pass, from submission to a complete
	// report; the benchmark's own output checks are outside it.
	start   time.Time
	elapsed time.Duration
	// injections settled: symbolic injections, or concrete faults.
	injections int
	// completed counts work units finished within their budget.
	completed int
	attempted int
	failed    int
	// digest fingerprints the pass's full output; every pass of a run must
	// reproduce the first pass's digest.
	digest string
	// counts are deterministic per-layer counts; identical across passes.
	counts map[string]float64
	// observed are per-layer values derived from timing; medians are
	// reported.
	observed map[string]float64

	allocBytes uint64
	mallocs    uint64
}

// measure runs one pass with a clean heap and records its allocations.
func measure(ctx context.Context, w workload, tr *tracer) (passOut, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parent := 0
	if tr != nil {
		parent = tr.beginPass()
	}
	out, err := w.pass(ctx, tr, parent)
	if tr != nil {
		tr.endAt(parent, out.start, out.start.Add(out.elapsed))
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return out, err
	}
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	return out, w.check(&out)
}

// sameOutput fails unless p reproduces the first pass exactly.
func sameOutput(first, p *passOut) error {
	if p.digest != first.digest {
		return checkFailf("pass output digest %s differs from the first pass's %s", p.digest, first.digest)
	}
	for k, v := range first.counts {
		if p.counts[k] != v {
			return checkFailf("deterministic count %s = %v, first pass had %v", k, p.counts[k], v)
		}
	}
	if p.completed != first.completed || p.injections != first.injections {
		return checkFailf("pass tallies differ from the first pass")
	}
	return nil
}

// setupsPerPass is how many set-ups a timed run samples after each pass;
// setup_s is the median of all of them.
const setupsPerPass = 3

// timeSetup builds a fresh instance of the workload and times its set-up.
// The instance is returned open; the caller closes it.
func timeSetup(ctx context.Context, cfg runConfig) (workload, float64, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	err = w.setup(ctx)
	dt := time.Since(t0).Seconds()
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, dt, nil
}

// prepare sets the workload up and returns the instance with its reference
// built and one untimed warm-up pass run and checked, so caches are filled
// and lazy set-up is done before anything is measured.
func prepare(ctx context.Context, cfg runConfig) (workload, float64, passOut, error) {
	w, setupTime, err := timeSetup(ctx, cfg)
	if err != nil {
		return nil, 0, passOut{}, err
	}
	if err := w.reference(ctx); err != nil {
		w.close()
		return nil, 0, passOut{}, fmt.Errorf("reference: %w", err)
	}
	warm, err := measure(ctx, w, nil)
	if err != nil {
		w.close()
		return nil, 0, passOut{}, fmt.Errorf("warm-up pass: %w", err)
	}
	return w, setupTime, warm, nil
}

// runTimed is the untraced run: it prints the end-to-end metrics.
//
// On a shared 2-vCPU VM, other tenants slow single passes down by up to
// 1.5x, in waves of seconds to minutes. The fastest pass of a run is an
// extreme value of that noise: over ten interleaved 20-second runs per
// workload, its interquartile share across runs was 0.15-0.28, against
// 0.12-0.15 for the median pass. The time metrics are therefore medians
// over the whole run. The set-up is sampled between passes, so it too is
// measured across the whole run rather than in one burst.
func runTimed(ctx context.Context, cfg runConfig) (result, error) {
	w, setup0, first, err := prepare(ctx, cfg)
	if err != nil {
		return result{}, err
	}
	defer w.close()

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	setupTimes := []float64{setup0}
	var secs, alloc []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < cfg.measure; n++ {
		p, err := measure(ctx, w, nil)
		if err == nil {
			err = sameOutput(&first, &p)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if err != nil {
			return res, err
		}
		secs = append(secs, p.elapsed.Seconds())
		alloc = append(alloc, float64(p.allocBytes)/1e6)

		for i := 0; i < setupsPerPass; i++ {
			extra, dt, err := timeSetup(ctx, cfg)
			if err != nil {
				return res, err
			}
			extra.close()
			setupTimes = append(setupTimes, dt)
		}
	}
	report := median(secs)
	set := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", median(setupTimes))
	set("report_s_p50", report)
	set("injections_per_s", float64(first.injections)/report)
	set("alloc_mb", median(alloc))
	set("tasks_completed", float64(first.completed))
	set("success_frac", 1-float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// keptPasses is how many traced passes keep their spans for the span file.
const keptPasses = 2

// runTraced is the traced run: untraced and traced passes alternate for the
// measured time (the difference of their median passes is the tracing
// overhead), then the per-layer probes run on the workload's program and
// input.
func runTraced(ctx context.Context, cfg runConfig) (result, error) {
	w, _, first, err := prepare(ctx, cfg)
	if err != nil {
		return result{}, err
	}
	defer w.close()

	tr := newTracer()
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, traced []float64
	observed := map[string][]float64{}
	self := map[string][]float64{}
	latencies := map[string][]float64{}
	var last passOut
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < cfg.measure {
		p, err := measure(ctx, w, nil)
		if err == nil {
			err = sameOutput(&first, &p)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if err != nil {
			return res, err
		}
		plain = append(plain, p.elapsed.Seconds())

		mark := tr.mark()
		hits0, misses0 := symbolic.InternStats()
		p, err = measure(ctx, w, tr)
		hits1, misses1 := symbolic.InternStats()
		if err == nil {
			err = sameOutput(&first, &p)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if err != nil {
			return res, err
		}
		traced = append(traced, p.elapsed.Seconds())
		observed["symbolic.intern_hits"] = append(observed["symbolic.intern_hits"], float64(hits1-hits0))
		observed["symbolic.intern_misses"] = append(observed["symbolic.intern_misses"], float64(misses1-misses0))
		if states := p.counts["checker.states"]; states > 0 {
			observed["checker.allocs_per_state"] = append(observed["checker.allocs_per_state"], float64(p.mallocs)/states)
		}
		for k, v := range p.observed {
			observed[k] = append(observed[k], v)
		}
		spans := tr.spans(mark)
		for layer, d := range selfTimes(spans) {
			self[layer] = append(self[layer], float64(d)/1e6)
		}
		collectLatencies(spans, latencies)
		if states := p.counts["checker.states"]; states > 0 {
			if work := workTime(spans); work > 0 {
				observed["checker.ns_per_state"] = append(observed["checker.ns_per_state"], float64(work)/states)
			}
		}
		if len(traced) > keptPasses {
			// Keep the span file and the heap small: later passes feed the
			// metrics above but their spans are not kept.
			tr.truncate(mark)
		}
		last = p
	}

	m := map[string]float64{}
	for k, v := range last.counts {
		m[k] = v
	}
	for k, vs := range observed {
		m[k] = median(vs)
	}
	for layer, vs := range self {
		m["self."+layer+"_ms"] = median(vs)
	}
	m["trace.overhead_frac"] = (median(traced) - median(plain)) / median(plain)
	m["bench.report_s_min"] = slices.Min(plain)
	m["bench.report_s_p90"] = percentile(plain, 90)

	if err := genericProbes(w.target(), m); err != nil {
		return res, err
	}
	mark := tr.mark()
	if err := w.probe(ctx, tr, m); err != nil {
		return res, err
	}
	collectLatencies(tr.spans(mark), latencies)
	for name, vs := range latencies {
		m[name+"_p50"] = percentile(vs, 50)
		m[name+"_p99"] = percentile(vs, 99)
	}
	if err := tr.write(cfg.spans); err != nil {
		return res, err
	}
	for _, d := range perLayer {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// workTime is the time spent in the pass's checker calls: the injection
// spans where there are any, otherwise the task spans that contain them.
func workTime(spans []span) time.Duration {
	var checker, cluster time.Duration
	for _, s := range spans {
		switch s.Layer {
		case "checker":
			checker += s.dur()
		case "cluster":
			cluster += s.dur()
		}
	}
	if checker > 0 {
		return checker
	}
	return cluster
}

// collectLatencies appends the per-call latencies, in milliseconds, of the
// checker injections, cluster tasks and dist claim/complete routes.
func collectLatencies(spans []span, acc map[string][]float64) {
	for _, s := range spans {
		name := ""
		switch {
		case s.Layer == "checker" && s.Name == "RunInjectionCtx":
			name = "checker.injection_ms"
		case s.Layer == "cluster":
			name = "cluster.task_ms"
		case s.Layer == "dist" && (s.Name == "claim" || s.Name == "complete"):
			name = "dist." + s.Name + "_ms"
		default:
			continue
		}
		acc[name] = append(acc[name], float64(s.dur())/1e6)
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undefined metric " + name)
}

// median of vs (NaN when empty).
func median(vs []float64) float64 { return percentile(vs, 50) }

// percentile returns the p-th percentile of vs by linear interpolation
// between closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
