package shard

import (
	"testing"
)

// TestSnapshotRoundTrip proves a column's full physical state — storage,
// tombstones, crack boundaries, sorted index — survives Snapshot →
// NewColumnFromSnapshot: the restored column answers queries identically
// and keeps the paid-for piece count (no re-cracking from scratch).
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
	// Crack a few ranges, build one part's sorted index, delete some rows,
	// append some more — exercise every piece of state the snapshot holds.
	for _, r := range [][2]int64{{100, 900}, {5_000, 9_000}, {20_000, 30_000}, {44_000, 48_000}} {
		c.FanOutCountSum(func(p *Part) (int, int64) { return p.CrackedSelect(r[0], r[1]) })
	}
	c.Parts()[1].BuildSorted()
	for g := uint32(0); g < 50; g++ {
		c.DeleteRow(g * 7)
	}
	for i := 0; i < 500; i++ {
		c.AppendAt(uint32(c.Rows()), int64(i%1000))
	}
	c.MergePending()

	wantPieces := 0
	for _, p := range c.Parts() {
		n, _ := p.PieceStats()
		wantPieces += n
	}
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
	gotPieces := 0
	for i, p := range r.Parts() {
		n, _ := p.PieceStats()
		gotPieces += n
		if err := p.Validate(); err != nil {
			t.Fatalf("restored part %d invalid: %v", i, err)
		}
	}
	if gotPieces != wantPieces {
		t.Fatalf("restored piece count %d, want %d (refinements lost)", gotPieces, wantPieces)
	}
	if !r.Parts()[1].HasSorted() || r.Parts()[0].HasSorted() {
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

	// Wrong shard count is rejected too.
	if _, err := NewColumnFromSnapshot(snap, Config{Shards: 3}); err == nil {
		t.Fatal("shard-count mismatch accepted by restore")
	}
}
