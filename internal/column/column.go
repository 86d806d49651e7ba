// Package column implements the columnar storage substrate: typed value
// arrays in insertion order, analogous to MonetDB BATs. The head (row id) is
// implicit — the value at slice index i belongs to row i — so a column is
// just a dense []int64 plus cached metadata. Index structures (cracker
// indexes, sorted offline indexes) keep their own reorganised copies and
// carry explicit row ids back to this base order.
package column

import (
	"errors"
	"fmt"
	"math"
)

// MaxRows is the largest number of rows a column may hold. Row ids are
// carried as uint32 inside index structures to halve their memory footprint,
// which caps columns at 2^32-1 rows — far above the paper's 10^8 scale.
const MaxRows = math.MaxUint32

// ErrTooLarge is returned when an operation would grow a column past MaxRows.
var ErrTooLarge = errors.New("column: too many rows")

// Column is an append-only integer column. The zero value is an empty,
// unnamed column ready for use.
type Column struct {
	name string
	vals []int64

	// Cached domain bounds; valid while statsOK is true.
	min, max int64
	statsOK  bool
}

// New returns an empty column with the given name.
func New(name string) *Column {
	return &Column{name: name}
}

// FromSlice builds a column that adopts vals (no copy). The caller must not
// mutate vals afterwards.
func FromSlice(name string, vals []int64) (*Column, error) {
	if len(vals) > MaxRows {
		return nil, fmt.Errorf("%w: %d", ErrTooLarge, len(vals))
	}
	return &Column{name: name, vals: vals}, nil
}

// Name returns the column's name.
func (c *Column) Name() string { return c.name }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.vals) }

// Values exposes the backing slice as a read-only view. Callers must not
// modify it; indexes copy what they need.
func (c *Column) Values() []int64 { return c.vals }

// Get returns the value of row i.
func (c *Column) Get(i int) int64 { return c.vals[i] }

// Append adds one value, returning its row id.
func (c *Column) Append(v int64) (uint32, error) {
	if len(c.vals) >= MaxRows {
		return 0, ErrTooLarge
	}
	c.vals = append(c.vals, v)
	if c.statsOK {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	return uint32(len(c.vals) - 1), nil
}

// MinMax returns the smallest and largest value in the column. It scans once
// and caches the result; appends keep the cache current. Ok is false for an
// empty column.
func (c *Column) MinMax() (minV, maxV int64, ok bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	if !c.statsOK {
		c.min, c.max = c.vals[0], c.vals[0]
		for _, v := range c.vals[1:] {
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
		}
		c.statsOK = true
	}
	return c.min, c.max, true
}

// Clone returns a deep copy with the same name and values.
func (c *Column) Clone() *Column {
	vals := make([]int64, len(c.vals))
	copy(vals, c.vals)
	return &Column{name: c.name, vals: vals, min: c.min, max: c.max, statsOK: c.statsOK}
}

// Snapshot copies the current values into a fresh slice, paired with their
// row ids. Index structures call this once at build time.
func (c *Column) Snapshot() (vals []int64, rows []uint32) {
	vals = make([]int64, len(c.vals))
	copy(vals, c.vals)
	rows = make([]uint32, len(c.vals))
	for i := range rows {
		rows[i] = uint32(i)
	}
	return vals, rows
}
