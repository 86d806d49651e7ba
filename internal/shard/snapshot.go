package shard

import (
	"fmt"
	"slices"

	"holistic/internal/cracker"
	"holistic/internal/scan"
)

// PartSnapshot is one shard's complete physical state in serializable form:
// the merged storage (tombstones included — local positions encode global
// row ids, so dead rows cannot be compacted away) plus the paid-for index
// refinements: the cracked copy with its boundary list, or the copy sorted
// to completion. Restoring it resumes the part exactly where the workload
// left it, with no re-cracking and no re-sorting.
type PartSnapshot struct {
	// Vals is the merged storage by local position; Deleted marks
	// tombstoned positions.
	Vals    []int64
	Deleted []bool

	// Index state, present iff HasCrack: the cracked copy's values and the
	// crack-tree boundaries in ascending key order — none when Sorted, the
	// copy then being ascending. The copy's row ids are not part of it: they
	// are derivable from the base, and the first delete that resolves
	// through the restored copy attaches them, as after a load.
	HasCrack   bool
	CrackVals  []int64
	Boundaries []cracker.Boundary
	Sorted     bool
}

// ColumnSnapshot is a whole logical column: its per-part snapshots in shard
// order plus the row high-water mark that restores the id allocator — the
// rows the parts hold, since a snapshot drains every queue and row ids are
// dense.
type ColumnSnapshot struct {
	Name  string
	Rows  int64
	Parts []PartSnapshot
}

// Snapshot deep-copies the column's physical state. The caller must have
// quiesced writers (the engine checkpoints under exclusive table locks);
// any still-buffered operations are merged first, and an undrainable
// backlog — a row id assigned but never enqueued, impossible once writers
// are excluded — is an error rather than silent data loss.
func (c *Column) Snapshot() (ColumnSnapshot, error) {
	snap := ColumnSnapshot{Name: c.name, Parts: make([]PartSnapshot, 0, len(c.parts))}
	for _, p := range c.parts {
		ps, err := p.snapshot()
		if err != nil {
			return ColumnSnapshot{}, err
		}
		snap.Parts = append(snap.Parts, ps)
		snap.Rows += int64(len(ps.Vals))
	}
	return snap, nil
}

func (p *Part) snapshot() (PartSnapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.mergeLocked(0) > 0 {
	}
	if n := p.ingest.Len(); n != 0 {
		return PartSnapshot{}, fmt.Errorf("shard: part %s holds %d undrainable buffered ops at snapshot", p.name, n)
	}
	// One flag per row, all false for a part that never had a delete.
	s := PartSnapshot{Vals: slices.Clone(p.vals), Deleted: make([]bool, len(p.vals))}
	for i := range s.Deleted {
		s.Deleted[i] = p.deadLocked(i)
	}
	if p.crack != nil {
		s.HasCrack = true
		s.CrackVals = p.crack.AppendValues(nil)
		s.Boundaries = p.crack.Boundaries()
		s.Sorted = p.crack.Sorted()
	}
	return s, nil
}

// NewColumnFromSnapshot rebuilds a column from its snapshot under cfg. The
// shard count must match the snapshot's (striping is positional: a row's
// part is g % N, so N is part of the on-disk layout, recorded in the
// manifest). The row high-water mark must be the rows the parts hold. Index
// state is re-validated on the way in — the copy's length against the
// part's live rows and the index's own invariants — so a
// corrupted snapshot fails restore instead of serving wrong answers. The
// restored copies are values-only; a copy whose values are not the live
// base's multiset but pass both checks is refused by the first delete that
// attaches its row ids (Column.AttachRows).
func NewColumnFromSnapshot(snap ColumnSnapshot, cfg Config) (*Column, error) {
	n := cfg.shards()
	if len(snap.Parts) != n {
		return nil, fmt.Errorf("shard: snapshot of %q has %d parts, config wants %d", snap.Name, len(snap.Parts), n)
	}
	c := &Column{name: snap.Name, cfg: cfg}
	rows := 0
	for _, ps := range snap.Parts {
		rows += len(ps.Vals)
		if len(ps.Deleted) != len(ps.Vals) {
			return nil, fmt.Errorf("shard: snapshot part %d of %q deleted/vals length mismatch", len(c.parts), snap.Name)
		}
		p := c.addPart(ps.Vals, ps.Deleted)
		p.lo, p.hi, _ = scan.MinMax(ps.Vals)
		if ps.HasCrack {
			if live := len(ps.Vals) - p.nDeleted; len(ps.CrackVals) != live {
				return nil, fmt.Errorf("shard: part %s: copy of %d values, the part has %d live rows", p.name, len(ps.CrackVals), live)
			}
			ix, err := cracker.RestoreIndex(ps.CrackVals, ps.Boundaries, ps.Sorted)
			if err != nil {
				return nil, fmt.Errorf("shard: part %s: %w", p.name, err)
			}
			p.attachCrackLocked(ix)
		}
	}
	if int64(rows) != snap.Rows {
		return nil, fmt.Errorf("shard: snapshot of %q records %d rows, its parts hold %d", snap.Name, snap.Rows, rows)
	}
	return c, nil
}
