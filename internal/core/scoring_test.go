package core_test

import (
	"testing"

	"holistic/internal/core"
	"holistic/internal/shard"
)

// Scoring only reads: a part with no cracked copy bids as one piece of its
// live rows, and only the step that wins materialises one.
func TestScoringNeverMaterialises(t *testing.T) {
	vals := make([]int64, 1<<12)
	for i := range vals {
		vals[i] = int64(i)
	}
	c, err := shard.NewColumn("R.A", vals, shard.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tn := core.NewTuner(core.Config{TargetPieceSize: 16, Seed: 1}, nil)
	for _, p := range c.Parts() {
		tn.Register(p, 0, 1<<12)
		tn.NoteQuery(p.Name(), 0, 100)
	}
	materialised := func() (n int) {
		for _, p := range c.Parts() {
			if p.Cracked() != nil {
				n++
			}
		}
		return n
	}
	// The step scores every part and materialises only the winner's copy;
	// with real work pending it never asks for a speculative slot.
	speculate := func() bool {
		t.Error("speculative slot asked with real work pending")
		return true
	}
	if _, res := tn.TryStep(speculate); res != core.StepWorked {
		t.Fatalf("step: %v", res)
	}
	if n := materialised(); n != 1 {
		t.Fatalf("one step materialised %d parts; want only the winner's", n)
	}
}
