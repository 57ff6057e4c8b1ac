package core

import "testing"

// TestHotPathAllocs is the runtime counterpart of the hotpath analyzer
// (internal/analysis/hotpath) for the core trial loop: once the scratch
// is warm, the //ftnet:hotpath-annotated placement, transfer and
// verification leaves must run allocation-free. AllocsPerRun and the
// static rule cross-check each other — an allocation snuck past one is
// still caught by the other.
func TestHotPathAllocs(t *testing.T) {
	g := mustGraph(t, testParams2D())
	sc := NewScratch(1)
	faults := sc.Faults(g.NumNodes())
	faults.Add(g.NumNodes() / 2)
	if _, err := g.ContainTorus(faults, ExtractOptions{Scratch: sc}); err != nil {
		t.Fatalf("warmup ContainTorus: %v", err)
	}
	tpl, err := g.template()
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	boxes, _, err := g.buildBoxes(faults, sc)
	if err != nil {
		t.Fatalf("buildBoxes: %v", err)
	}
	if len(boxes) == 0 {
		t.Fatal("warmup produced no fault boxes")
	}

	// interpolateDelta with no previous boxes (a cold start) drives
	// colEval.setColumn and colEval.evalSlab over every footprint column,
	// so a zero here pins all three.
	p := g.P
	dst0 := sc.bandsBuf(p.M(), p.W, g.ColShape, p.K())
	bs, err := g.interpolateDelta(boxes, nil, tpl.bs, sc, tpl, dst0)
	if err != nil {
		t.Fatalf("interpolateDelta: %v", err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := g.interpolateDelta(boxes, nil, tpl.bs, sc, tpl, dst0); err != nil {
			t.Fatalf("interpolateDelta: %v", err)
		}
	}); a > 0 {
		t.Errorf("interpolateDelta: %v allocs/op, want 0", a)
	}

	n := g.P.N()
	dst := make([]int32, n)
	dev := make([]bool, g.NumCols)
	if err := g.transferFast(bs, tpl.defaultRows, sc, 0, 1, sc.rowmap[0], dst, dev); err != nil {
		t.Fatalf("transferFast: %v", err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := g.transferFast(bs, tpl.defaultRows, sc, 0, 1, sc.rowmap[0], dst, dev); err != nil {
			t.Fatalf("transferFast: %v", err)
		}
	}); a > 0 {
		t.Errorf("transferFast: %v allocs/op, want 0", a)
	}

	skip := func(zn int) bool { return false }
	if a := testing.AllocsPerRun(50, func() {
		if err := g.verifyColumn(sc.emb, faults, sc, 0, true, skip); err != nil {
			t.Fatalf("verifyColumn: %v", err)
		}
	}); a > 0 {
		t.Errorf("verifyColumn: %v allocs/op, want 0", a)
	}
}
