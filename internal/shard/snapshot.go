package shard

import (
	"fmt"
	"slices"

	"holistic/internal/cracker"
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

	// Index state, present iff HasCrack: the cracked copy (values with
	// aligned global row ids) and the crack-tree boundaries in ascending
	// key order — none when Sorted, the copy then being ascending.
	HasCrack   bool
	CrackVals  []int64
	CrackRows  []uint32
	Boundaries []cracker.Boundary
	Sorted     bool
}

// ColumnSnapshot is a whole logical column: its per-part snapshots in shard
// order plus the row high-water mark that restores the id allocator.
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
	snap := ColumnSnapshot{Name: c.name, Rows: c.rows.Load(), Parts: make([]PartSnapshot, 0, len(c.parts))}
	for _, p := range c.parts {
		ps, err := p.snapshot()
		if err != nil {
			return ColumnSnapshot{}, err
		}
		snap.Parts = append(snap.Parts, ps)
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
	s := PartSnapshot{
		Vals:    slices.Clone(p.vals),
		Deleted: slices.Clone(p.deleted),
	}
	if p.crack != nil {
		s.HasCrack = true
		s.CrackVals = slices.Clone(p.crack.Values())
		s.CrackRows = slices.Clone(p.crack.Rows())
		s.Boundaries = p.crack.Boundaries()
		s.Sorted = p.crack.Sorted()
	}
	return s, nil
}

// NewColumnFromSnapshot rebuilds a column from its snapshot under cfg. The
// shard count must match the snapshot's (striping is positional: a row's
// part is g % N, so N is part of the on-disk layout, recorded in the
// manifest). Index state is re-validated on the way in — a corrupted
// snapshot fails restore instead of serving wrong answers.
func NewColumnFromSnapshot(snap ColumnSnapshot, cfg Config) (*Column, error) {
	n := cfg.shards()
	if len(snap.Parts) != n {
		return nil, fmt.Errorf("shard: snapshot of %q has %d parts, config wants %d", snap.Name, len(snap.Parts), n)
	}
	c := &Column{name: snap.Name, cfg: cfg}
	c.rows.Store(snap.Rows)
	for _, ps := range snap.Parts {
		if len(ps.Deleted) != len(ps.Vals) {
			return nil, fmt.Errorf("shard: snapshot part %d of %q deleted/vals length mismatch", len(c.parts), snap.Name)
		}
		p := c.addPart(ps.Vals, ps.Deleted)
		if ps.HasCrack {
			ix, err := cracker.RestoreIndex(ps.CrackVals, ps.CrackRows, ps.Boundaries, ps.Sorted)
			if err != nil {
				return nil, fmt.Errorf("shard: part %s: %w", p.name, err)
			}
			p.attachCrackLocked(ix)
		}
	}
	return c, nil
}
