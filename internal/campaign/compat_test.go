package campaign

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
	"symplfied/internal/faults"
	"symplfied/internal/symexec"
)

// prunedJournalSpec is the campaign testdata/pruned-journal.jsonl journals:
// every register at one factorial site, 29 of whose 31 registers are dead
// there. The journal was written while liveness pruning was a separate
// elision, so those 29 entries carry "Pruned":true.
func prunedJournalSpec() checker.Spec {
	prog := factorial.Plain()
	var injs []faults.Injection
	for _, inj := range faults.RegisterInjections(prog, false) {
		if inj.PC == 3 {
			injs = append(injs, inj)
		}
	}
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400
	return checker.Spec{
		Program:       prog,
		Input:         []int64{5},
		Injections:    injs,
		Exec:          exec,
		Predicate:     checker.OutputContainsErr(),
		MaxFindings:   1,
		DiscardStates: true,
		Parallelism:   1,
	}
}

// verdicts renders reports as their JSON objects without the markers that
// record which proof elided an injection ("Pruned", "Summarized");
// everything left is the verdict.
func verdicts(t *testing.T, irs []checker.InjectionReport) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(irs))
	for i, ir := range irs {
		b, err := json.Marshal(ir)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &out[i]); err != nil {
			t.Fatal(err)
		}
		delete(out[i], "Pruned")
		delete(out[i], "Summarized")
	}
	return out
}

// TestResumePrunedJournal: a journal whose entries carry the retired
// "Pruned":true marker still decodes and resumes — whole, or cut after a
// few entries with the rest explored now, plain or summarized — to the
// verdicts of a fresh plain run.
func TestResumePrunedJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pruned-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"Pruned":true`)) {
		t.Fatal("fixture carries no Pruned marker")
	}
	want, _, err := Run(context.Background(), prunedJournalSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for _, tc := range []struct {
		name      string
		entries   int
		summaries bool
	}{
		{"whole", len(want.PerInjection), false},
		{"partial", 10, false},
		{"partial-summarized", 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "campaign.jsonl")
			if err := os.WriteFile(journal, bytes.Join(lines[:1+tc.entries], nil), 0o644); err != nil {
				t.Fatal(err)
			}
			spec := prunedJournalSpec()
			spec.UseSummaries = tc.summaries
			got, stats, err := Run(context.Background(), spec, Config{Checkpoint: journal, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Resumed != tc.entries || stats.Executed != len(spec.Injections)-tc.entries {
				t.Errorf("resumed %d / executed %d, want %d / %d",
					stats.Resumed, stats.Executed, tc.entries, len(spec.Injections)-tc.entries)
			}
			if !reflect.DeepEqual(verdicts(t, got.PerInjection), verdicts(t, want.PerInjection)) {
				t.Error("resumed per-injection verdicts differ from a fresh plain run's")
			}
			if got.TotalStates != want.TotalStates || !reflect.DeepEqual(got.Outcomes, want.Outcomes) ||
				len(got.Findings) != len(want.Findings) || got.Verdict() != want.Verdict() {
				t.Errorf("resumed totals %d states %v %d findings %s, fresh %d states %v %d findings %s",
					got.TotalStates, got.Outcomes, len(got.Findings), got.Verdict(),
					want.TotalStates, want.Outcomes, len(want.Findings), want.Verdict())
			}
		})
	}
}
