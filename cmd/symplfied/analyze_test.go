package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"symplfied/internal/cli"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestAnalyzeJSONGolden pins the exact shape of `symplfied -analyze -json`:
// field names, ordering, indentation, the function partition and its
// content-addressed summary keys. Scripts parse this output, so a change
// here is an interface change — regenerate deliberately with
// `go test ./cmd/symplfied -run TestAnalyzeJSONGolden -update` and review
// the diff.
func TestAnalyzeJSONGolden(t *testing.T) {
	unit, err := cli.LoadUnit("", "factorial-detectors", false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runAnalyze(&buf, unit, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "analyze_factorial_detectors.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-analyze -json output changed (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestHardenTCASGolden pins the full `symplfied -harden -app tcas` report:
// which coverage gaps the summaries drop as benign, which get detectors, and
// the before/after sweep. Regenerate deliberately with
// `go test ./cmd/symplfied -run TestHardenTCASGolden -update` and review the
// diff.
func TestHardenTCASGolden(t *testing.T) {
	got := captureRun(t, "-harden", "-app", "tcas")
	golden := filepath.Join("testdata", "harden_tcas.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("-harden output changed (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
