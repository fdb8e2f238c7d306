package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symplfied/internal/apps/tcas"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/dist"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
)

// tcas-fleet: the Section 6.2 tcas study submitted to a loopback /v1
// service and drained by two in-process workers. Every pass starts a fresh
// registry, so the fleet result cache never answers a task.

const (
	fleetTasks       = 150
	fleetTaskBudget  = 25_000
	fleetMaxFindings = 10
	fleetWorkers     = 2
	// fleetPoll is how long a worker whose campaign has no claimable task
	// waits before claiming again; it bounds how long the pass's tail waits
	// for an idle worker to notice the campaign is done.
	fleetPoll = 2 * time.Millisecond
	// workerHeader names the worker a request comes from, so the traced
	// service can attribute its routes.
	workerHeader = "X-Perfbench-Worker"
)

type tcasFleet struct {
	input tcas.Inputs
	paper bool
	doc   dist.SpecDoc

	// The loopback service: one listener and server for the whole run,
	// serving a fresh registry's handler each pass.
	srv     *http.Server
	served  chan struct{}
	base    string
	handler swapHandler
	// transport is shared by the submitter and both workers and holds at
	// most two loopback connections.
	transport *http.Transport
	rpcs      atomic.Int64
	non2xx    atomic.Int64

	refBytes   []byte
	refSummary cluster.Summary
	spec       checker.Spec
}

func newTcasFleet(seed int64) (workload, error) {
	in, err := tcasInput(seed)
	if err != nil {
		return nil, err
	}
	return &tcasFleet{input: in, paper: seed == paperSeed}, nil
}

// swapHandler serves the current pass's service handler.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// countingTransport tags each request with its sender and counts requests
// and non-2xx replies.
type countingTransport struct {
	base   http.RoundTripper
	sender string
	fleet  *tcasFleet
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(workerHeader, t.sender)
	t.fleet.rpcs.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err != nil || resp.StatusCode/100 != 2 {
		t.fleet.non2xx.Add(1)
	}
	return resp, err
}

func (w *tcasFleet) client(sender string) *http.Client {
	return &http.Client{Transport: &countingTransport{base: w.transport, sender: sender, fleet: w}}
}

// fleetDoc is the campaign document of the study on input in.
func fleetDoc(in tcas.Inputs) dist.SpecDoc {
	return dist.SpecDoc{
		Name:               "tcas-fleet",
		App:                "tcas",
		Input:              in.Slice(),
		Class:              "register",
		Goal:               "wrong-advisory",
		Watchdog:           sweepWatchdog,
		Tasks:              fleetTasks,
		TaskStateBudget:    fleetTaskBudget,
		MaxFindingsPerTask: fleetMaxFindings,
	}
}

// fleetStudy runs the study of a lowered document in-process through
// cluster.RunCtx.
func fleetStudy(ctx context.Context, spec checker.Spec) []cluster.TaskReport {
	return cluster.RunCtx(ctx, spec, cluster.Split(spec.Injections, fleetTasks), cluster.Config{
		Workers:            fleetWorkers,
		TaskStateBudget:    fleetTaskBudget,
		MaxFindingsPerTask: fleetMaxFindings,
	})
}

func (w *tcasFleet) setup(ctx context.Context) error {
	w.doc = fleetDoc(w.input)
	// Lowering the document loads the program, runs the golden execution
	// and enumerates the injections, as every party of a campaign does.
	spec, err := w.doc.Build()
	if err != nil {
		return err
	}
	w.spec = spec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	w.srv = &http.Server{Handler: &w.handler, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	reg, err := w.newService(nil, 0)
	if err != nil {
		return err
	}
	defer reg.Close()
	_, err = dist.NewClient(w.base, w.client("submitter")).Create(ctx, dist.CreateCampaignRequest{Tenant: "bench", Doc: w.doc})
	return err
}

// newService installs a fresh registry's /v1 service, wrapped in the route
// tracer when tr is set.
func (w *tcasFleet) newService(tr *tracer, parent int) (*dist.Registry, error) {
	reg, err := dist.NewRegistry(dist.RegistryConfig{Store: dist.NewMemStore()})
	if err != nil {
		return nil, err
	}
	h := dist.NewService(reg).Handler()
	if tr != nil {
		h = traceRoutes(tr, parent, h)
	}
	w.handler.set(h)
	return reg, nil
}

func (w *tcasFleet) close() {
	if w.srv != nil {
		w.srv.Close()
		<-w.served
		w.transport.CloseIdleConnections()
	}
}

func (w *tcasFleet) reference(ctx context.Context) error {
	reports := fleetStudy(ctx, w.spec)
	w.refSummary = cluster.Summarize(reports)
	var err error
	w.refBytes, err = json.Marshal(dist.MergedReport{Complete: true, Tasks: reports, Summary: w.refSummary})
	if err != nil {
		return err
	}
	// The paper's catastrophic scenario must exist on this input: err in $31
	// at Non_Crossing_Biased_Climb's return makes the run print 2. On the
	// paper input the study's own report must contain it; on a drawn input
	// the ten-finding cap of that task can fill with other wrong advisories
	// first, so the injection is explored without the cap.
	if w.paper {
		for _, f := range w.refSummary.Findings {
			if isDownward(f) {
				return nil
			}
		}
		return checkFailf("the tcas study found no 1->2 advisory flip")
	}
	jr, err := tcas.ReturnJrPC(w.spec.Program, "Non_Crossing_Biased_Climb")
	if err != nil {
		return err
	}
	uncapped := w.spec
	uncapped.MaxFindings = 0
	ir, err := checker.RunInjectionCtx(ctx, uncapped, faults.Injection{Class: faults.ClassRegister, PC: jr, Loc: isa.RegLoc(isa.RegRA)})
	if err != nil {
		return err
	}
	for _, f := range ir.Findings {
		if isDownward(f) {
			return nil
		}
	}
	return checkFailf("err in $31 at Non_Crossing_Biased_Climb's return never prints 2")
}

// isDownward reports whether a finding printed the downward advisory alone.
func isDownward(f checker.Finding) bool {
	if f.State == nil {
		return false
	}
	vals := f.State.OutputValues()
	if len(vals) != 1 {
		return false
	}
	v, ok := vals[0].Concrete()
	return ok && v == tcas.DownwardRA
}

func (w *tcasFleet) pass(ctx context.Context, tr *tracer, parent int) (passOut, error) {
	mark := 0
	if tr != nil {
		mark = tr.mark()
	}
	w.rpcs.Store(0)
	w.non2xx.Store(0)
	reg, err := w.newService(tr, parent)
	if err != nil {
		return passOut{}, err
	}
	defer reg.Close()
	submit := dist.NewClient(w.base, w.client("submitter"))

	t0 := time.Now()
	info, err := submit.Create(ctx, dist.CreateCampaignRequest{Tenant: "bench", Doc: w.doc})
	if err != nil {
		return passOut{}, err
	}
	coord, ok := reg.Get(info.ID)
	if !ok {
		return passOut{}, fmt.Errorf("campaign %s not in the registry", info.ID)
	}
	stats := make([]dist.WorkerStats, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", i+1)
			stats[i], errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Coordinator: w.base,
				ID:          id,
				Client:      w.client(id),
				Campaign:    info.ID,
				Poll:        fleetPoll,
				Parallelism: 1,
			})
		}(i)
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
	}
	raw, rerr := w.get(ctx, dist.V1CampaignPath(info.ID, "report"))
	elapsed := time.Since(t0)
	wg.Wait()
	if rerr != nil {
		return passOut{}, rerr
	}
	counters := coord.Status().Counters

	out := passOut{
		start:      t0,
		elapsed:    elapsed,
		injections: w.refSummary.TotalInjections,
		completed:  w.refSummary.Completed,
		attempted:  w.refSummary.Tasks + int(w.rpcs.Load()),
		failed:     int(w.non2xx.Load()),
		counts: execCounts(w.refSummary.TotalStates, len(w.refSummary.Findings), w.refSummary.TotalInjections,
			w.refSummary.Summarized, w.refSummary.Pruned, w.refSummary.Exec),
	}
	var dups, abandoned int
	for i, s := range stats {
		dups += s.Duplicates
		abandoned += s.Abandoned
		if errs[i] != nil {
			out.failed++
		}
	}
	out.failed += dups + abandoned
	out.counts["dist.tasks_from_cache"] = float64(counters.TasksFromCache)
	out.counts["dist.duplicates"] = float64(dups)
	out.counts["dist.abandoned"] = float64(abandoned)
	out.digest, err = digestJSON(raw)
	if err != nil {
		return out, err
	}
	if !bytes.Equal(raw, w.refBytes) {
		return out, checkFailf("merged report differs from cluster.RunCtx over the same document")
	}
	if tr != nil {
		out.observed = fleetObserved(tr, parent, tr.spans(mark), elapsed, w.refSummary.Tasks)
	}
	return out, nil
}

// get fetches a route's raw body.
func (w *tcasFleet) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client("submitter").Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return bytes.TrimSpace(body), nil
}

func (w *tcasFleet) check(p *passOut) error {
	if p.failed > 0 {
		return checkFailf("%d RPCs, duplicates, abandoned tasks or worker errors", p.failed)
	}
	if p.counts["dist.tasks_from_cache"] != 0 {
		return checkFailf("%v tasks settled from the result cache", p.counts["dist.tasks_from_cache"])
	}
	return nil
}

func (w *tcasFleet) target() probeTarget {
	return probeTarget{
		name: "tcas", source: tcas.Source, prog: w.spec.Program, input: w.spec.Input,
		watchdog: sweepWatchdog, injections: w.spec.Injections, faults: len(w.spec.Injections),
	}
}

func (w *tcasFleet) probe(context.Context, *tracer, map[string]float64) error { return nil }

// traceRoutes wraps the service handler: each request becomes a dist span
// under the pass, carrying the route, the worker that sent it and the bytes
// it moved.
func traceRoutes(tr *tracer, parent int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := tr.now()
		cw := &countingWriter{ResponseWriter: rw}
		next.ServeHTTP(cw, r)
		tr.add(span{
			Parent: parent, Layer: "dist", Name: routeName(r),
			Start: start, End: tr.now(),
			Worker: r.Header.Get(workerHeader),
			Bytes:  max(r.ContentLength, 0) + cw.n,
		})
	})
}

// routeName is the /v1 route a request hit: "create" for the campaign
// collection, otherwise the operation after the campaign ID.
func routeName(r *http.Request) string {
	path := strings.TrimSuffix(r.URL.Path, "/")
	if path == dist.PathV1Campaigns {
		return "create"
	}
	return path[strings.LastIndex(path, "/")+1:]
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// fleetObserved derives the pass's dist and cluster figures from its route
// spans. A worker sweeps a task between the end of the claim that leased it
// and the start of the complete that posts it; those intervals are recorded
// as cluster spans, and whatever else of the pass a worker spends is idle.
func fleetObserved(tr *tracer, parent int, spans []span, elapsed time.Duration, tasks int) map[string]float64 {
	byWorker := map[string][]span{}
	var rpcs, bytesMoved int64
	for _, s := range spans {
		if s.Layer != "dist" {
			continue
		}
		rpcs++
		bytesMoved += s.Bytes
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
	}
	var busy int64
	for worker, ss := range byWorker {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for i := 1; i < len(ss); i++ {
			if ss[i].Name == "complete" && ss[i-1].Name == "claim" {
				busy += ss[i].Start - ss[i-1].End
				tr.add(span{Parent: parent, Layer: "cluster", Name: "worker task", Start: ss[i-1].End, End: ss[i].Start, Worker: worker})
			}
		}
	}
	capacity := float64(fleetWorkers) * float64(elapsed)
	return map[string]float64{
		"dist.rpcs_per_task":    float64(rpcs) / float64(tasks),
		"dist.bytes_per_task":   float64(bytesMoved) / float64(tasks),
		"dist.worker_idle_frac": 1 - float64(busy)/capacity,
		"cluster.busy_frac":     float64(busy) / capacity,
	}
}
