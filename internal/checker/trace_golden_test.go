package checker

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/asm"
	"symplfied/internal/detector"
	"symplfied/internal/faults"
	"symplfied/internal/isa"
	"symplfied/internal/symexec"
)

// goldenTracePath holds the rendered trace of every finding of
// goldenTraceRuns. Trace text is produced lazily, when a trace is read; the
// golden file pins that rendering byte for byte across every site that
// records an event.
const goldenTracePath = "testdata/traces.golden"

type goldenRun struct {
	name  string
	spec  Spec
	marks []string // substrings the run's traces must contain
}

func goldenTraceRuns(t *testing.T) []goldenRun {
	t.Helper()
	exec := symexec.DefaultOptions()
	exec.Watchdog = 400

	// tcas register sweep: every 23rd injection, plus the return jumps, whose
	// $31 injections fork over erroneous control targets.
	prog := tcas.Program()
	var tcasInjs []faults.Injection
	jrs := map[int]bool{}
	for _, fn := range []string{"Non_Crossing_Biased_Climb", "Own_Below_Threat"} {
		pc, err := tcas.ReturnJrPC(prog, fn)
		if err != nil {
			t.Fatal(err)
		}
		jrs[pc] = true
	}
	for i, inj := range faults.RegisterInjections(prog, true) {
		if i%23 == 0 || (jrs[inj.PC] && inj.Loc == isa.RegLoc(isa.RegRA)) {
			tcasInjs = append(tcasInjs, inj)
		}
	}

	fprog, fdets := factorial.WithDetectors()

	div := asm.MustParse("divisor", `
	read $1
	li $2 100
	div $3 $2 $1
	setlt $5 $3 $1
	print $5
	halt
`)
	ptr := asm.MustParse("pointer", `
	li $1 7
	st $1 100($0)
	li $1 9
	st $1 104($0)
	li $2 100
	ld $3 0($2)
	st $3 4($2)
	ld $4 104($0)
	print $4
	halt
`)
	jump := asm.MustParse("jump", `
	li $1 3
	jr $1
	halt
out:	prints "x"
	halt
`)
	stuck := asm.MustParse("stuck", `
	read $1
	li $4 1
loop:	setgt $5 $1 $4
	beqi $5 0 exit
	subi $1 $1 1
	jmp loop
exit:	print $1
	halt
`)

	return []goldenRun{
		{
			name: "tcas register sweep",
			spec: Spec{
				Program:     prog,
				Input:       tcas.UpwardInput().Slice(),
				Injections:  tcasInjs,
				Exec:        symexec.DefaultOptions(),
				Predicate:   anyTerminal,
				MaxFindings: 3,
				StateBudget: 4000,
			},
			marks: []string{"inject:", "fork:", "constraint:", "control:", "exception:", "halt:"},
		},
		{
			name: "factorial with detectors",
			spec: Spec{
				Program:     fprog,
				Detectors:   fdets,
				Input:       []int64{5},
				Injections:  faults.RegisterInjections(fprog, true),
				Exec:        exec,
				Predicate:   anyTerminal,
				MaxFindings: 4,
			},
			marks: []string{"check-pass:", "detect:", ": detector "},
		},
		{
			name: "erroneous divisor",
			spec: Spec{
				Program:    div.Program,
				Input:      []int64{4},
				Injections: []faults.Injection{{Class: faults.ClassRegister, PC: 2, Loc: isa.RegLoc(1)}},
				Exec:       exec,
				Predicate:  anyTerminal,
			},
			marks: []string{"divisor err", "div-zero case", "div-nonzero case", "setlt at @3: e#1 < e#0"},
		},
		{
			name: "erroneous pointer",
			spec: Spec{
				Program: ptr.Program,
				Injections: []faults.Injection{
					{Class: faults.ClassRegister, PC: 5, Loc: isa.RegLoc(2)},
					{Class: faults.ClassRegister, PC: 6, Loc: isa.RegLoc(2)},
				},
				Exec:      exec,
				Predicate: anyTerminal,
			},
			marks: []string{"load through erroneous pointer", "store through erroneous pointer", "resolved to"},
		},
		{
			name: "erroneous control target",
			spec: Spec{
				Program:    jump.Program,
				Injections: []faults.Injection{{Class: faults.ClassRegister, PC: 1, Loc: isa.RegLoc(1)}},
				Exec:       exec,
				Predicate:  anyTerminal,
			},
			marks: []string{"control transferred through erroneous target to out+1 (@4)", "assume invalid code address"},
		},
		{
			name: "permanent fault",
			spec: Spec{
				Program:    stuck.Program,
				Input:      []int64{5},
				Injections: faults.PermanentVariant([]faults.Injection{{Class: faults.ClassRegister, PC: 2, Loc: isa.RegLoc(1)}}),
				Exec:       exec,
				Predicate:  anyTerminal,
			},
			marks: []string{"permanent (stuck-at)"},
		},
		{
			name: "fetch error",
			spec: Spec{
				Program:     fprog,
				Detectors:   detector.EmptyTable(),
				Input:       []int64{3},
				Injections:  faults.ControlInjections(fprog)[:2],
				Exec:        exec,
				Predicate:   anyTerminal,
				MaxFindings: 6,
			},
			marks: []string{"fetch error: PC redirected"},
		},
	}
}

// renderGoldenTraces runs every golden run sequentially and renders each
// finding's trace under a header naming the run, injection and outcome. It
// checks that the trace the finding captured (the form journals and the wire
// protocol carry) renders to the same text as the live state's trace.
func renderGoldenTraces(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, run := range goldenTraceRuns(t) {
		spec := run.spec
		spec.Parallelism = 1
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		var section strings.Builder
		for i, f := range rep.Findings {
			if f.State == nil {
				t.Fatalf("%s: finding %d has no state", run.name, i)
			}
			live := f.State.Trace.Render()
			var captured strings.Builder
			for _, e := range f.Trace {
				captured.WriteString(e.String())
				captured.WriteString("\n")
			}
			if captured.String() != live {
				t.Errorf("%s: finding %d captured trace\n%s\ndiffers from its live trace\n%s", run.name, i, captured.String(), live)
			}
			fmt.Fprintf(&section, "-- %s | %s\n", f.Injection, f.Outcome)
			section.WriteString(live)
		}
		for _, m := range run.marks {
			if !strings.Contains(section.String(), m) {
				t.Errorf("%s: no trace contains %q", run.name, m)
			}
		}
		fmt.Fprintf(&b, "== %s (%d findings)\n", run.name, len(rep.Findings))
		b.WriteString(section.String())
	}
	return b.String()
}

// TestGoldenTraces: every finding's rendered trace matches the committed
// golden file byte for byte.
func TestGoldenTraces(t *testing.T) {
	got := renderGoldenTraces(t)
	want, err := os.ReadFile(filepath.FromSlash(goldenTracePath))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace rendering drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace rendering drifted: %d lines, golden has %d", len(gl), len(wl))
}
