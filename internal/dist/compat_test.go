package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/checker"
	"symplfied/internal/cluster"
	"symplfied/internal/faults"
	"symplfied/internal/symexec"
)

// TestPrunedTaskResultDecodes: a task result whose reports carry the
// retired "Pruned":true marker — testdata/pruned-task-result.json, one
// unsplit task over every register at one factorial site, swept while
// liveness pruning was a separate elision — still decodes as the service's
// /complete handler and store restore decode it, and pools to the task
// report a fresh plain sweep of the same task pools to.
func TestPrunedTaskResultDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pruned-task-result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"Pruned":true`)) {
		t.Fatal("fixture carries no Pruned marker")
	}
	var old TaskResult
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}

	prog := factorial.Plain()
	var injs []faults.Injection
	for _, inj := range faults.RegisterInjections(prog, false) {
		if inj.PC == 3 {
			injs = append(injs, inj)
		}
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400
	spec := checker.Spec{
		Program:       prog,
		Input:         []int64{5},
		Exec:          exec,
		Predicate:     checker.OutputContainsErr(),
		MaxFindings:   1,
		DiscardStates: true,
		Parallelism:   1,
	}
	task := cluster.Task{ID: 0, Injections: injs}
	const budget = 200_000
	want, irs := cluster.RunTaskCtx(context.Background(), spec, task, budget, 0)

	// The fixture's reports, as JSON objects without the marker, must be
	// the fresh sweep's.
	var oldObjs struct{ Reports []map[string]any }
	if err := json.Unmarshal(raw, &oldObjs); err != nil {
		t.Fatal(err)
	}
	if len(oldObjs.Reports) != len(irs) {
		t.Fatalf("decoded %d reports, fresh sweep %d", len(oldObjs.Reports), len(irs))
	}
	for i, ir := range irs {
		delete(oldObjs.Reports[i], "Pruned")
		b, err := json.Marshal(ir)
		if err != nil {
			t.Fatal(err)
		}
		var fresh map[string]any
		if err := json.Unmarshal(b, &fresh); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oldObjs.Reports[i], fresh) {
			t.Errorf("report %d (%s) differs beyond the Pruned marker", i, ir.Injection)
		}
	}
	if got := cluster.PoolReports(task, old.Reports, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("pooled decoded result %+v, fresh sweep %+v", got, want)
	}
}
