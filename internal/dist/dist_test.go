package dist

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"symplfied/internal/checker"
	"symplfied/internal/symexec"
)

// testDoc is a small real campaign: the factorial benchmark's register-error
// study, decomposed into 4 tasks.
func testDoc() SpecDoc {
	return SpecDoc{
		Name:               "factorial-register",
		App:                "factorial",
		Input:              []int64{5},
		Class:              "register",
		Goal:               "incorrect-output",
		Watchdog:           400,
		Tasks:              4,
		MaxFindingsPerTask: 10,
	}
}

// fakeClock is a manually-advanced clock for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestCoordinator registers testDoc as the only campaign of a fresh
// in-memory registry.
func newTestCoordinator(t *testing.T, clock *fakeClock, lease time.Duration) *Coordinator {
	t.Helper()
	cfg := RegistryConfig{Lease: lease}
	if clock != nil {
		cfg.Now = clock.Now
	}
	c, err := newTestRegistry(t, cfg).Create(testDoc(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// syntheticResult fabricates a minimal but well-formed task result whose
// StatesExplored marker identifies which poster it came from.
func syntheticResult(marker int) TaskResult {
	return TaskResult{Reports: []checker.InjectionReport{{
		Activated:      true,
		StatesExplored: marker,
		Outcomes:       map[symexec.Outcome]int{symexec.OutcomeNormal: 1},
	}}}
}

// TestLeaseLifecycle is the lease state machine, table-driven over a fake
// clock: claims, heartbeats, expiry-driven reassignment, and de-duplication
// of completions from re-claimed tasks.
func TestLeaseLifecycle(t *testing.T) {
	const lease = 30 * time.Second
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Coordinator, clock *fakeClock)
	}{
		{"silent worker loses its task and the duplicate completion is dropped", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			a := c.Claim("a")
			if a.Task == nil || a.Task.ID != 0 {
				t.Fatalf("first claim: %+v", a)
			}
			// Worker a goes silent: no heartbeat for a full lease.
			clock.Advance(lease + time.Second)
			b := c.Claim("b")
			if b.Task == nil || b.Task.ID != 0 {
				t.Fatalf("expired task not re-served first: %+v", b.Task)
			}
			if got := c.Status().Counters.TasksReassigned; got != 1 {
				t.Errorf("reassigned counter %d, want 1", got)
			}
			// b finishes; the zombie a posts afterwards.
			if resp, err := c.Complete("b", 0, syntheticResult(200)); err != nil || !resp.Accepted {
				t.Fatalf("live completion rejected: %+v, %v", resp, err)
			}
			resp, err := c.Complete("a", 0, syntheticResult(100))
			if err != nil || !resp.Duplicate || resp.Accepted {
				t.Fatalf("zombie completion not dropped as duplicate: %+v, %v", resp, err)
			}
			if got := c.Report().Tasks[0].StatesExplored; got != 200 {
				t.Errorf("pooled result came from the zombie (states %d, want 200)", got)
			}
			if got := c.Status().Counters.DuplicateCompletions; got != 1 {
				t.Errorf("duplicate counter %d, want 1", got)
			}
		}},
		{"zombie that posts before the reclaimer wins (first completion settles)", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			clock.Advance(lease + time.Second)
			c.Claim("b") // task 0 re-leased to b
			// a's full result arrives first: it is the task's real sweep, so
			// it settles the task; b's later post is the duplicate.
			if resp, _ := c.Complete("a", 0, syntheticResult(100)); !resp.Accepted {
				t.Fatal("first completion not accepted")
			}
			if resp, _ := c.Complete("b", 0, syntheticResult(200)); !resp.Duplicate {
				t.Fatal("second completion not deduplicated")
			}
			if got := c.Report().Tasks[0].StatesExplored; got != 100 {
				t.Errorf("pooled states %d, want the first poster's 100", got)
			}
		}},
		{"heartbeats keep the lease alive past its nominal duration", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			for i := 0; i < 4; i++ {
				clock.Advance(lease / 2)
				if err := c.Heartbeat("a", 0); err != nil {
					t.Fatalf("heartbeat %d under a live lease: %v", i, err)
				}
			}
			// Two lease durations have elapsed, but the renewals held task 0.
			if b := c.Claim("b"); b.Task == nil || b.Task.ID == 0 {
				t.Fatalf("heartbeated task was re-served: %+v", b.Task)
			}
		}},
		{"heartbeat after expiry reports the lost lease", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			clock.Advance(lease + time.Second)
			if err := c.Heartbeat("a", 0); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("heartbeat on an expired lease: %v, want ErrLeaseLost", err)
			}
		}},
		{"heartbeat for a task the worker never held reports the lost lease", func(t *testing.T, c *Coordinator, clock *fakeClock) {
			c.Claim("a")
			if err := c.Heartbeat("b", 0); !errors.Is(err, ErrLeaseLost) {
				t.Fatalf("foreign heartbeat: %v, want ErrLeaseLost", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			tc.run(t, newTestCoordinator(t, clock, lease), clock)
		})
	}
}

// TestLeaseLostDecisiveness: only a 409 from the coordinator proves the
// lease is gone. A 5xx from a reverse proxy in front of the coordinator, or
// a transport failure, says nothing about the lease and must be retried
// instead of aborting a long sweep and throwing its work away.
func TestLeaseLostDecisiveness(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"409 conflict", &httpError{status: http.StatusConflict, msg: "409 Conflict: dist: lease lost"}, true},
		{"wrapped 409", fmt.Errorf("heartbeat: %w", &httpError{status: http.StatusConflict}), true},
		{"proxy 502", &httpError{status: http.StatusBadGateway, msg: "502 Bad Gateway"}, false},
		{"overload 503", &httpError{status: http.StatusServiceUnavailable, msg: "503 Service Unavailable"}, false},
		{"coordinator 400", &httpError{status: http.StatusBadRequest, msg: "400 Bad Request"}, false},
		{"transport failure", errors.New("dial tcp: connection refused"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := leaseLost(tc.err); got != tc.want {
				t.Errorf("leaseLost(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// failingStore is a MemStore whose result log has gone bad: every
// AppendResult fails.
type failingStore struct{ *MemStore }

func (failingStore) AppendResult(campaignID, key string, payload any) error {
	return errors.New("disk full")
}

// TestJournalErrorSurfaced: a completion that pools but fails to reach the
// store must still be Accepted, but the failure must be visible server-side
// — the operator relying on a restart over the same store has to learn
// journaling is broken before the restart that depends on it.
func TestJournalErrorSurfaced(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{Store: failingStore{NewMemStore()}})
	c, err := r.Create(testDoc(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp := c.Claim("w"); resp.Task == nil {
		t.Fatal("claim failed")
	}
	resp, err := c.Complete("w", 0, syntheticResult(1))
	if err == nil {
		t.Fatal("journal failure not reported")
	}
	if !resp.Accepted {
		t.Error("result no longer pooled on a journal failure")
	}
	if got := c.Status().Counters.JournalErrors; got != 1 {
		t.Errorf("JournalErrors counter %d, want 1", got)
	}
	if got := c.Report().Tasks[0].StatesExplored; got != 1 {
		t.Errorf("pooled states %d, want 1 (result must survive the journal failure)", got)
	}
}

// TestClaimDrainsToDone walks a single worker through the whole queue.
func TestClaimDrainsToDone(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		resp := c.Claim("w")
		if resp.Task == nil {
			t.Fatalf("claim %d served nothing", i)
		}
		if seen[resp.Task.ID] {
			t.Fatalf("task %d served twice under a live lease", resp.Task.ID)
		}
		seen[resp.Task.ID] = true
		cr, err := c.Complete("w", resp.Task.ID, syntheticResult(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if wantDone := i == 3; cr.Done != wantDone {
			t.Errorf("completion %d: Done = %v, want %v", i, cr.Done, wantDone)
		}
	}
	final := c.Claim("w")
	if !final.Done {
		t.Errorf("claim after all tasks settled: %+v, want Done", final)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done channel not closed after the last completion")
	}
	st := c.Status()
	if st.Done != 4 || st.Queued != 0 || st.Leased != 0 {
		t.Errorf("status %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Completed != 4 || !st.Workers[0].Live {
		t.Errorf("worker status %+v", st.Workers)
	}
}

// TestSpecDocValidation covers the document's failure modes.
func TestSpecDocValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*SpecDoc)
	}{
		{"no program", func(d *SpecDoc) { d.App = "" }},
		{"both app and source", func(d *SpecDoc) { d.Source = "halt" }},
		{"unknown app", func(d *SpecDoc) { d.App = "nonesuch" }},
		{"unknown class", func(d *SpecDoc) { d.Class = "cosmic-ray" }},
		{"unknown goal", func(d *SpecDoc) { d.Goal = "world-peace" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := testDoc()
			tc.mut(&doc)
			if _, err := doc.Build(); err == nil {
				t.Error("bad spec document accepted")
			}
		})
	}
}
