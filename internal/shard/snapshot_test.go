package shard

import (
	"testing"
)

// TestSnapshotRoundTrip proves a column's full physical state — storage,
// tombstones, crack boundaries, sorted indexes — survives Snapshot →
// NewColumnFromSnapshot: the restored column answers queries identically
// and keeps the paid-for piece count (no re-cracking from scratch). Part 0
// is sorted from scratch, part 1 cracked, part 2 sorted after cracking.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Shards: 3}
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 50_000)
	}
	c, err := NewColumn("t.a", vals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sort part 0, crack a few ranges, sort part 2, delete some rows, append
	// some more — exercise every piece of state the snapshot holds.
	c.Parts()[0].BuildSorted()
	for _, r := range [][2]int64{{100, 900}, {5_000, 9_000}, {20_000, 30_000}, {44_000, 48_000}} {
		c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(r[0], r[1]) })
	}
	c.Parts()[2].BuildSorted()
	for g := uint32(0); g < 50; g++ {
		c.DeleteRow(g * 7)
	}
	for i := 0; i < 500; i++ {
		c.AppendAt(uint32(c.Rows()), int64(i%1000))
	}
	c.MergePending()

	wantPieces, _ := c.PieceStats()
	if wantPieces <= len(c.Parts()) {
		t.Fatalf("setup produced no cracking: %d pieces", wantPieces)
	}
	queries := [][2]int64{{0, 50_000}, {123, 456}, {5_000, 9_000}, {25_000, 25_001}, {49_000, 60_000}}
	type ans struct {
		c int
		s int64
	}
	want := make([]ans, len(queries))
	for i, q := range queries {
		cnt, sum := c.FanOutCountSum(func(p *Part) (int, int64) { return p.ScanCountSum(q[0], q[1]) })
		want[i] = ans{cnt, sum}
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := NewColumnFromSnapshot(snap, cfg)
	if err != nil {
		t.Fatalf("NewColumnFromSnapshot: %v", err)
	}

	if r.Rows() != c.Rows() {
		t.Fatalf("row high-water %d != %d", r.Rows(), c.Rows())
	}
	if r.Live() != c.Live() {
		t.Fatalf("live %d != %d", r.Live(), c.Live())
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("restored column invalid: %v", err)
	}
	if gotPieces, _ := r.PieceStats(); gotPieces != wantPieces {
		t.Fatalf("restored piece count %d, want %d (refinements lost)", gotPieces, wantPieces)
	}
	if p := r.Parts(); !p[0].HasSorted() || p[1].HasSorted() || !p[2].HasSorted() {
		t.Fatal("sorted-index placement not restored")
	}
	for i, q := range queries {
		for name, f := range map[string]func(p *Part) (int, int64){
			"scan":    func(p *Part) (int, int64) { return p.ScanCountSum(q[0], q[1]) },
			"cracked": func(p *Part) (int, int64) { return p.CrackedSelect(q[0], q[1]) },
			"probe": func(p *Part) (int, int64) {
				if c, s, _, ok := p.Probe(q[0], q[1]); ok {
					return c, s
				}
				return p.ScanCountSum(q[0], q[1])
			},
		} {
			cnt, sum := r.FanOutCountSum(f)
			if cnt != want[i].c || sum != want[i].s {
				t.Fatalf("query %d via %s: got (%d,%d), want (%d,%d)", i, name, cnt, sum, want[i].c, want[i].s)
			}
		}
	}
	// The restored column keeps working: appends and deletes still apply.
	g := uint32(r.Rows())
	r.AppendAt(g, 42)
	r.MergePending()
	if v := r.DeleteRow(g); v != 42 {
		t.Fatalf("post-restore delete returned %d", v)
	}
}

// TestSnapshotRejectsCorruption: a snapshot whose index state was tampered
// with must fail restore, not serve wrong answers.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cfg := Config{Shards: 2}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	c, err := NewColumn("t.a", vals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(100, 700) })
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := snap
	bad.Parts = append([]PartSnapshot(nil), snap.Parts...)
	if !bad.Parts[0].HasCrack || len(bad.Parts[0].Boundaries) == 0 {
		t.Fatal("setup: no crack state to corrupt")
	}
	// Swap two cracked values across a boundary: piece bounds now lie.
	cv := append([]int64(nil), bad.Parts[0].CrackVals...)
	b := bad.Parts[0].Boundaries[0]
	if b.Pos == 0 || b.Pos >= len(cv) {
		t.Fatal("setup: boundary at edge")
	}
	cv[0], cv[len(cv)-1] = cv[len(cv)-1], cv[0]
	bad.Parts[0].CrackVals = cv
	if _, err := NewColumnFromSnapshot(bad, cfg); err == nil {
		t.Fatal("corrupted crack state accepted by restore")
	}
	// A sorted block whose copy does not ascend is rejected too.
	c.Parts()[1].BuildSorted()
	if snap, err = c.Snapshot(); err != nil || !snap.Parts[1].Sorted {
		t.Fatalf("setup: part 1 not snapshotted sorted: %v", err)
	}
	bad.Parts = append([]PartSnapshot(nil), snap.Parts...)
	cv = append([]int64(nil), snap.Parts[1].CrackVals...)
	cv[0], cv[1] = cv[1], cv[0]
	bad.Parts[1].CrackVals = cv
	if _, err := NewColumnFromSnapshot(bad, cfg); err == nil {
		t.Fatal("unsorted copy accepted as a sorted index by restore")
	}

	// Wrong shard count is rejected too.
	if _, err := NewColumnFromSnapshot(snap, Config{Shards: 3}); err == nil {
		t.Fatal("shard-count mismatch accepted by restore")
	}
}
