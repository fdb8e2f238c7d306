package isa_test

import (
	"testing"

	"symplfied/internal/apps/factorial"
	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
)

// labelForScan is the reference LabelFor: a scan of the whole label map for
// the largest index at or before pc, the smallest name winning ties.
func labelForScan(p *isa.Program, pc int) (label string, offset int, ok bool) {
	best := -1
	for l, idx := range p.Labels {
		if idx <= pc && (idx > best || (idx == best && l < label)) {
			if idx > best {
				best = idx
				label = l
			} else if l < label {
				label = l
			}
			ok = true
		}
	}
	if !ok {
		return "", 0, false
	}
	return label, pc - best, true
}

func checkLabelFor(t *testing.T, p *isa.Program, pcs ...int) {
	t.Helper()
	for _, pc := range pcs {
		l, off, ok := p.LabelFor(pc)
		wl, woff, wok := labelForScan(p, pc)
		if l != wl || off != woff || ok != wok {
			t.Errorf("%s: LabelFor(%d) = %q, %d, %v; scan gives %q, %d, %v", p.Name, pc, l, off, ok, wl, woff, wok)
		}
	}
}

// TestLabelForMatchesScan: the per-PC label index answers exactly as the
// label-map scan it replaced, on every PC of the paper's programs and on the
// edge cases of the tie-break and the index bounds.
func TestLabelForMatchesScan(t *testing.T) {
	fprog, _ := factorial.WithDetectors()
	for _, p := range []*isa.Program{tcas.Program(), replace.Program(), factorial.Plain(), fprog} {
		pcs := []int{-1, p.Len(), p.Len() + 7}
		for pc := 0; pc < p.Len(); pc++ {
			pcs = append(pcs, pc)
		}
		checkLabelFor(t, p, pcs...)
	}

	instrs := []isa.Instr{{Op: isa.OpNop}, {Op: isa.OpNop}, {Op: isa.OpNop}, {Op: isa.OpHalt}}
	for _, tc := range []struct {
		name   string
		labels map[string]int
	}{
		{"two labels at one index", map[string]int{"zeta": 1, "alpha": 1, "mid": 2}},
		{"label at len(Instrs)", map[string]int{"start": 0, "end": len(instrs)}},
		{"no labels", nil},
		{"first label after pc 0", map[string]int{"b": 2, "a": 2}},
	} {
		p, err := isa.NewProgram(tc.name, instrs, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		checkLabelFor(t, p, -5, -1, 0, 1, 2, 3, 4, 5, 100)
	}

	p, _ := isa.NewProgram("tie", instrs, map[string]int{"zeta": 1, "alpha": 1})
	if l, off, ok := p.LabelFor(3); l != "alpha" || off != 2 || !ok {
		t.Errorf("tie-break: LabelFor(3) = %q, %d, %v; want alpha, 2, true", l, off, ok)
	}
	if got := p.Locate(-1); got != "@-1(invalid)" {
		t.Errorf("Locate(-1) = %q", got)
	}
}
