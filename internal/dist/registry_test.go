package dist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// testDocB is a second, distinct campaign document (different input, so a
// different fingerprint, and a different decomposition width).
func testDocB() SpecDoc {
	doc := testDoc()
	doc.Name = "factorial-register-6"
	doc.Input = []int64{6}
	doc.Tasks = 3
	return doc
}

func newTestRegistry(t *testing.T, cfg RegistryConfig) *Registry {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// settleCampaign drives every remaining task of one campaign with synthetic
// results through the real claim/complete path.
func settleCampaign(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for {
		resp := c.Claim(worker)
		if resp.Done {
			return
		}
		if resp.Task == nil {
			t.Fatalf("campaign %s wedged: no task and not done", c.ID())
		}
		if _, err := c.Complete(worker, resp.Task.ID, syntheticResult(resp.Task.ID+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistryLifecycle walks create → open → done and create → cancelled,
// checking the store record tracks each transition.
func TestRegistryLifecycle(t *testing.T) {
	store := NewMemStore()
	r := newTestRegistry(t, RegistryConfig{Store: store})

	a, err := r.Create(testDoc(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == "" || a.Tenant() != "alice" {
		t.Fatalf("campaign identity not set: id=%q tenant=%q", a.ID(), a.Tenant())
	}
	if got, want := a.ID(), a.Fingerprint()[:12]+"-1"; got != want {
		t.Errorf("campaign ID %q, want fingerprint prefix scheme %q", got, want)
	}
	if r.Drained() {
		t.Error("registry with an open campaign reports drained")
	}

	settleCampaign(t, a, "w")
	if err := r.SyncState(a.ID()); err != nil {
		t.Fatal(err)
	}
	if st := a.State(); st != StateDone {
		t.Errorf("state %q after all tasks settled, want %q", st, StateDone)
	}
	recs, err := store.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != StateDone {
		t.Errorf("stored record %+v, want state done", recs)
	}

	b, err := r.Create(testDocB(), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(b.ID()); err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != StateCancelled {
		t.Errorf("state %q after cancel, want %q", st, StateCancelled)
	}
	if resp := b.Claim("w"); !resp.Done {
		t.Error("cancelled campaign still serves claims")
	}
	if resp, _ := b.Complete("w", 0, syntheticResult(1)); !resp.Duplicate {
		t.Error("late completion on a cancelled campaign not dropped")
	}
	// Cancel is idempotent; unknown IDs are ErrNoCampaign.
	if err := r.Cancel(b.ID()); err != nil {
		t.Errorf("re-cancel: %v", err)
	}
	if err := r.Cancel("nonesuch"); !errors.Is(err, ErrNoCampaign) {
		t.Errorf("cancel of unknown ID: %v, want ErrNoCampaign", err)
	}

	if !r.Drained() {
		t.Error("registry with only done/cancelled campaigns not drained")
	}
	list := r.List()
	if len(list.Campaigns) != 2 {
		t.Fatalf("list %+v, want 2 campaigns", list)
	}
}

// TestRegistryOpenCampaignQuota: MaxOpenCampaigns bounds each tenant
// independently, and a settled campaign frees its slot.
func TestRegistryOpenCampaignQuota(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{Quotas: Quotas{MaxOpenCampaigns: 1}})
	a, err := r.Create(testDoc(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(testDocB(), "alice", 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("second open campaign for alice: %v, want ErrQuota", err)
	}
	// Another tenant is unaffected.
	if _, err := r.Create(testDocB(), "bob", 0); err != nil {
		t.Fatalf("bob's first campaign refused: %v", err)
	}
	// Settling alice's campaign frees her slot.
	settleCampaign(t, a, "w")
	if _, err := r.Create(testDocB(), "alice", 0); err != nil {
		t.Fatalf("create after settling under quota: %v", err)
	}
}

// TestFleetClaimPriorityAndRoundRobin: the dispatcher serves the
// highest-priority open campaign first and round-robins equals by
// least-recently-served.
func TestFleetClaimPriorityAndRoundRobin(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	a, err := r.Create(testDoc(), "t", 0) // 4 tasks
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Create(testDocB(), "t", 0) // 3 tasks
	if err != nil {
		t.Fatal(err)
	}
	hi, err := r.Create(SpecDoc{
		Name: "hi", App: "factorial", Input: []int64{4},
		Class: "register", Goal: "incorrect-output", Watchdog: 400, Tasks: 2,
	}, "t", 5)
	if err != nil {
		t.Fatal(err)
	}

	// The high-priority campaign is drained of claimable tasks first.
	for i := 0; i < 2; i++ {
		fr := r.FleetClaim("w")
		if fr.Campaign != hi.ID() || fr.Task == nil {
			t.Fatalf("claim %d went to %q, want the priority-5 campaign %q", i, fr.Campaign, hi.ID())
		}
	}
	// Its tasks are all leased now; equal-priority a and b alternate, starting
	// from creation order.
	want := []string{a.ID(), b.ID(), a.ID(), b.ID()}
	for i, id := range want {
		fr := r.FleetClaim("w")
		if fr.Campaign != id || fr.Task == nil {
			t.Fatalf("claim %d went to %q (task %v), want round-robin %q", i, fr.Campaign, fr.Task, id)
		}
	}
	if fr := r.FleetClaim("w"); fr.Done {
		t.Error("fleet reported done with open campaigns")
	}
}

// TestFleetClaimLeasedTaskQuota: a tenant at MaxLeasedTasks is skipped —
// other tenants keep claiming — and completing a task reopens the tap.
func TestFleetClaimLeasedTaskQuota(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{Quotas: Quotas{MaxLeasedTasks: 2}})
	a, err := r.Create(testDoc(), "alice", 1) // higher priority: served first
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Create(testDocB(), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}

	var aliceTasks []int
	for i := 0; i < 2; i++ {
		fr := r.FleetClaim("w")
		if fr.Campaign != a.ID() || fr.Task == nil {
			t.Fatalf("claim %d: %+v, want alice's campaign", i, fr)
		}
		aliceTasks = append(aliceTasks, fr.Task.ID)
	}
	// Alice is at quota: the next claim skips her open campaign entirely.
	fr := r.FleetClaim("w")
	if fr.Campaign != b.ID() || fr.Task == nil {
		t.Fatalf("claim at alice's quota: %+v, want bob's campaign", fr)
	}
	// A completion frees one of alice's leases; she is served again.
	if _, err := a.Complete("w", aliceTasks[0], syntheticResult(1)); err != nil {
		t.Fatal(err)
	}
	fr = r.FleetClaim("w")
	if fr.Campaign != a.ID() || fr.Task == nil {
		t.Fatalf("claim after completion: %+v, want alice's campaign again", fr)
	}
}

// TestFleetClaimDoneSemantics: an empty registry is "waiting", not done; a
// registry whose campaigns all settled is done.
func TestFleetClaimDoneSemantics(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	if fr := r.FleetClaim("w"); fr.Done {
		t.Error("empty registry reported Done: a fleet started before its first submission would exit")
	}
	a, err := r.Create(testDoc(), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	settleCampaign(t, a, "w")
	fr := r.FleetClaim("w")
	if !fr.Done || fr.OpenCampaigns != 0 {
		t.Errorf("drained registry claim %+v, want Done with 0 open", fr)
	}
}

// TestRegistryRestartResume: a new registry over the same disk store resumes
// every non-cancelled campaign — the done one restored in full, the open one
// with only its unsettled tasks claimable — warms the fleet result cache from
// the journaled results, and lists the cancelled one as a tombstone.
func TestRegistryRestartResume(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRegistry(RegistryConfig{Store: store1})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := r1.Create(testDoc(), "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Create(testDocB(), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := r1.Create(SpecDoc{
		Name: "doomed", App: "factorial", Input: []int64{4},
		Class: "register", Goal: "incorrect-output", Watchdog: 400, Tasks: 2,
	}, "carol", 0)
	if err != nil {
		t.Fatal(err)
	}
	settleCampaign(t, a1, "w") // a: fully done
	// b: exactly one of three tasks settled.
	resp := b1.Claim("w")
	if resp.Task == nil {
		t.Fatal("claim on b failed")
	}
	firstB := resp.Task.ID
	if _, err := b1.Complete("w", firstB, syntheticResult(100)); err != nil {
		t.Fatal(err)
	}
	if err := r1.Cancel(c1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := r1.SyncState(a1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: fresh store handle, fresh registry, fresh result cache.
	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRegistry(RegistryConfig{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	a2, ok := r2.Get(a1.ID())
	if !ok {
		t.Fatal("done campaign not resumed")
	}
	if st := a2.State(); st != StateDone {
		t.Errorf("resumed done campaign state %q", st)
	}
	if info := a2.Info(); info.Done != info.Total || info.Total != 4 {
		t.Errorf("resumed done campaign info %+v", info)
	}
	// Restored results carry the exact journaled payloads.
	if got := a2.Report().Tasks[0].StatesExplored; got != 1 {
		t.Errorf("restored task 0 states %d, want 1", got)
	}

	b2, ok := r2.Get(b1.ID())
	if !ok {
		t.Fatal("open campaign not resumed")
	}
	if st := b2.State(); st != StateOpen {
		t.Errorf("resumed open campaign state %q", st)
	}
	if info := b2.Info(); info.Done != 1 || info.Total != 3 {
		t.Errorf("resumed open campaign info %+v, want 1/3 done", info)
	}
	// Only the unsettled tasks are re-served.
	served := map[int]bool{}
	for {
		resp := b2.Claim("w2")
		if resp.Task == nil {
			break
		}
		if resp.Task.ID == firstB {
			t.Fatalf("journaled task %d re-served after restart", firstB)
		}
		served[resp.Task.ID] = true
	}
	if len(served) != 2 {
		t.Errorf("resumed campaign served %v, want the 2 unsettled tasks", served)
	}

	// The cancelled campaign is a tombstone: listed, not claimable.
	if _, ok := r2.Get(c1.ID()); ok {
		t.Error("cancelled campaign resumed as live")
	}
	var tomb *CampaignInfo
	for i, info := range r2.List().Campaigns {
		if info.ID == c1.ID() {
			tomb = &r2.List().Campaigns[i]
		}
	}
	if tomb == nil || tomb.State != StateCancelled {
		t.Errorf("cancelled campaign not listed as tombstone: %+v", tomb)
	}

	// The fleet cache was re-warmed from the journaled results: 4 from a, 1
	// from b.
	if got := r2.Cache().Len(); got != 5 {
		t.Errorf("resumed cache holds %d results, want 5", got)
	}
}

// TestRegistryResumeRejectsWidthMismatch: the campaign fingerprint excludes
// the task split width, so a stored record whose document was edited to a
// different -tasks split must be refused on resume rather than replaying its
// task:N results onto the new split's task boundaries.
func TestRegistryResumeRejectsWidthMismatch(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRegistry(RegistryConfig{Store: store1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r1.Create(testDoc(), "alice", 0) // 4 tasks
	if err != nil {
		t.Fatal(err)
	}
	resp := c.Claim("w")
	if resp.Task == nil {
		t.Fatal("claim failed")
	}
	if _, err := c.Complete("w", resp.Task.ID, syntheticResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// Edit the stored document's split from 4 tasks to 2 by hand.
	path := filepath.Join(dir, c.ID(), "campaign.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec CampaignRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Doc.Tasks = 2
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRegistry(RegistryConfig{Store: store2})
	if err == nil {
		r2.Close()
		t.Fatal("a record whose document was re-split from 4 to 2 tasks resumed")
	}
	store2.Close()
}

// TestResubmitSettlesFromCache: a second campaign over the same document is
// answered from the fleet result cache at claim time — no worker lease — and
// its merged report is byte-identical to the first run's. Failed tasks are
// not cached and are re-served.
func TestResubmitSettlesFromCache(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	a, err := r.Create(testDoc(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tasks 0-2 settle normally; task 3 fails (worker OOM, say).
	for {
		resp := a.Claim("w")
		if resp.Done {
			break
		}
		if resp.Task == nil {
			t.Fatal("claim wedged")
		}
		res := syntheticResult(resp.Task.ID + 1)
		if resp.Task.ID == 3 {
			res = TaskResult{Failure: "worker exploded"}
		}
		if _, err := a.Complete("w", resp.Task.ID, res); err != nil {
			t.Fatal(err)
		}
	}

	b, err := r.Create(testDoc(), "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID() == a.ID() {
		t.Fatal("resubmission reused the campaign ID")
	}
	resp := b.Claim("probe")
	// Tasks 0-2 settle from cache during this single claim; the failed task 3
	// was never cached, so the probe leases it for a real re-run.
	if resp.Task == nil || resp.Task.ID != 3 {
		t.Fatalf("claim on resubmission %+v, want a lease on the uncached failed task 3", resp)
	}
	st := b.Status()
	if st.Counters.TasksFromCache != 3 {
		t.Errorf("TasksFromCache %d, want 3", st.Counters.TasksFromCache)
	}
	if info := b.Info(); info.FromCache != 3 || info.Done != 3 {
		t.Errorf("resubmitted campaign info %+v, want 3 done from cache", info)
	}
	if _, err := b.Complete("probe", 3, syntheticResult(4)); err != nil {
		t.Fatal(err)
	}

	// The cache-settled tasks are byte-identical to the originals.
	for id := 0; id < 3; id++ {
		got, err := json.Marshal(b.Report().Tasks[id])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(a.Report().Tasks[id])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("task %d cache-settled report differs:\n got  %s\n want %s", id, got, want)
		}
	}

	// The cache-settled events are marked.
	events, _ := b.EventsSince(0)
	fromCache := 0
	for _, ev := range events {
		if ev.FromCache {
			fromCache++
		}
	}
	if fromCache != 3 {
		t.Errorf("%d FromCache events, want 3", fromCache)
	}
}
