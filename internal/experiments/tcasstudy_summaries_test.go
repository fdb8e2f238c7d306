package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"symplfied/internal/checker"
)

// TestTcasStudySummarized re-runs the Section 6.2 study (scaled down) with
// summaries enabled and checker.SetCheckSummaries armed: any elided
// exploration is shadow-explored and the process panics on divergence, so a
// passing run discharges the summary proof — its liveness base case
// included — over the whole study. The summarized artifact must match the
// plain one row for row — same findings, same states, same task split —
// except for the summary tally itself.
func TestTcasStudySummarized(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled study in -short mode")
	}
	cfg := DefaultTcasConfig()
	cfg.Tasks = 40
	cfg.TaskStateBudget = 12_000

	plain, err := TcasStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	defer checker.SetCheckSummaries(true)()
	cfg.UseSummaries = true
	summarized, err := TcasStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !summarized.ShapeOK {
		t.Errorf("summarized study shape checks failed:\n%s", summarized.Render())
	}

	count := -1
	var kept []string
	for _, row := range summarized.Rows {
		if strings.HasPrefix(row, "summaries:") {
			if _, err := fmt.Sscanf(row, "summaries: %d", &count); err != nil {
				t.Fatalf("unparsable summaries row %q: %v", row, err)
			}
			continue
		}
		kept = append(kept, row)
	}
	if count <= 0 {
		t.Fatalf("no injections classified by the summary proof (row reported %d)", count)
	}
	if len(kept) != len(plain.Rows) {
		t.Fatalf("row count diverges with summaries: %d vs %d\nplain:\n%s\nsummarized:\n%s",
			len(plain.Rows), len(kept), plain.Render(), summarized.Render())
	}
	for i := range kept {
		if kept[i] != plain.Rows[i] {
			t.Errorf("row %d diverges with summaries:\n  plain:      %s\n  summarized: %s", i, plain.Rows[i], kept[i])
		}
	}
}
