package cracker

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"holistic/internal/updates"
)

// One model, every mutator, both states: a seeded program interleaves
// everything that can move a value or a boundary — query cracks, point
// cracks, the idle action's random cracks, forced radix passes, batched merges, Sort, and a Boundaries -> RestoreIndex
// round trip — beside a plain slice of the (value, row) pairs the index must
// hold. After every step Validate passes (piece bounds and every boundary's
// sum, or an ascending copy and its prefix sums, against a running scan),
// the index holds the model's values — with their row ids once attached —
// and the aggregates of random value ranges and random positions equal the
// model's. On a sorted index no crack partitions a value or makes a boundary.
// Each program runs twice: values-only, where one step attaches the row ids
// from a base rebuilt out of the model, and with row ids from the start.
//
// Values are drawn to hurt: MinInt64 and MaxInt64 (prefix sums wrap, their
// differences must not), a handful of heavily duplicated values, and two
// tight clusters a wide gap apart, so a radix pass leaves most of its
// buckets empty and registers runs of boundaries at one position.

type modelRow struct {
	v int64
	r uint32
}

type sumModel struct {
	t       *testing.T
	seed    int
	rng     *rand.Rand
	ix      *Index
	rows    []modelRow
	nextRow uint32
	palette int  // which value generator this program uses
	rowsOn  bool // the index carries row ids
}

// attach gives the index row ids from a base rebuilt out of the model: row r
// holds its value, and the ids the model does not hold are tombstoned.
func (m *sumModel) attach() {
	base, dead := make([]int64, m.nextRow), make([]bool, m.nextRow)
	for i := range dead {
		dead[i] = true
	}
	for _, e := range m.rows {
		base[e.r], dead[e.r] = e.v, false
	}
	if err := m.ix.AttachRows(base, 0, 1, pack(dead)); err != nil {
		m.fatalf("AttachRows: %v", err)
	}
	m.rowsOn = true
}

// holds reports whether some row of the model holds v.
func (m *sumModel) holds(v int64) bool {
	return slices.ContainsFunc(m.rows, func(e modelRow) bool { return e.v == v })
}

func (m *sumModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d: "+format, append([]any{m.seed}, args...)...)
}

func (m *sumModel) value() int64 {
	switch m.palette {
	case 0: // heavy duplicates
		return m.rng.Int64N(6)
	case 1: // extremes: sums wrap
		extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		if m.rng.IntN(3) > 0 {
			return extremes[m.rng.IntN(len(extremes))]
		}
		return m.rng.Int64() - m.rng.Int64()
	case 2: // two clusters, empty radix buckets in between
		return int64(m.rng.IntN(2))<<40 + m.rng.Int64N(5)
	default: // uniform over a small domain
		return m.rng.Int64N(1<<10) - 1<<9
	}
}

// bounds draws a value range around the palette's values; one in eight is
// empty or inverted.
func (m *sumModel) bounds() (lo, hi int64) {
	lo, hi = m.value(), m.value()
	if lo > hi && m.rng.IntN(8) > 0 {
		lo, hi = hi, lo
	}
	if hi < math.MaxInt64 && m.rng.IntN(2) == 0 {
		hi++ // include the drawn value
	}
	return lo, hi
}

func (m *sumModel) countSum(lo, hi int64) (count int, sum int64) {
	for _, e := range m.rows {
		if e.v >= lo && e.v < hi {
			count, sum = count+1, sum+e.v
		}
	}
	return count, sum
}

func (m *sumModel) step() string {
	ix, rng := m.ix, m.rng
	switch op := rng.IntN(15); op {
	case 0:
		lo, hi := m.bounds()
		from, to := ix.CrackRange(lo, hi)
		wc, ws := m.countSum(lo, hi)
		if c, s := ix.CountSum(from, to); c != wc || s != ws {
			m.fatalf("CrackRange[%d, %d) + CountSum = %d/%d, model %d/%d", lo, hi, c, s, wc, ws)
		}
		return "CrackRange"
	case 1:
		crackAt(ix, m.value())
		return "crackAt"
	case 5: // forced radix pass over the piece a drawn value falls into
		a, b, sum, _ := ix.locateShared(m.value())
		ix.radixPiece(a, b, sum)
		return "radixPiece"
	case 6, 7, 8, 9:
		return m.merge()
	case 2, 3, 4, 10:
		ix.RandomCrack(rng)
		return "RandomCrack"
	case 11: // both bounds pinned, then a random crack
		lo, hi := m.bounds()
		crackAt(ix, lo)
		crackAt(ix, hi)
		ix.RandomCrack(rng)
		return "crackAt+RandomCrack"
	case 12:
		ix.Sort()
		return "Sort"
	case 13:
		m.attach()
		return "AttachRows"
	default: // what a checkpoint and a restart do: the sums are not persisted
		restored, err := RestoreIndex(slices.Clone(ix.AppendValues(nil)), ix.Boundaries(), ix.Sorted())
		if err != nil {
			m.fatalf("RestoreIndex of a valid index: %v", err)
		}
		restored.SetRadixMinPiece(ix.radixMin)
		m.ix = restored
		if m.rowsOn { // a restored copy is values-only until attached
			m.attach()
		}
		return "RestoreIndex"
	}
}

// merge applies one batch of 0 to 600 inserts (mostly few, up to 600 one time
// in eight) of the palette's values and of the extremes below and above every
// boundary; deletes of a random subset of the rows — all of them one time in
// eight, so the batch empties the index and refills it — and, one time in
// four, of pairs the index does not hold, which Merge must count as missing
// and nothing else.
func (m *sumModel) merge() string {
	rng := m.rng
	size := func() int { return rng.IntN([]int{2, 2, 9, 9, 65, 65, 65, 601}[rng.IntN(8)]) }
	var ins, del []updates.Entry
	for k := size(); k > 0; k-- {
		v := m.value()
		switch rng.IntN(16) {
		case 0:
			v = math.MinInt64
		case 1:
			v = math.MaxInt64
		}
		ins = append(ins, updates.Entry{Val: v, Row: m.nextRow})
		m.nextRow++
	}
	nd := min(size(), len(m.rows))
	if rng.IntN(8) == 0 {
		nd = len(m.rows)
	}
	rng.Shuffle(len(m.rows), func(i, j int) { m.rows[i], m.rows[j] = m.rows[j], m.rows[i] })
	for _, e := range m.rows[:nd] {
		del = append(del, updates.Entry{Val: e.v, Row: e.r})
	}
	absent := 0
	for rng.IntN(4) == 0 {
		// No row has that id yet; a values-only copy deletes by value, so
		// there it must be a value no row holds.
		if v := m.value(); m.rowsOn || !m.holds(v) {
			del = append(del, updates.Entry{Val: v, Row: m.nextRow})
			absent++
		}
	}
	updates.SortByVal(ins)
	updates.SortByVal(del)
	if missing := m.ix.Merge(ins, del); missing != absent {
		m.fatalf("Merge of %d inserts and %d deletes missed %d deletes; %d were absent", len(ins), len(del), missing, absent)
	}
	m.rows = slices.Delete(m.rows, 0, nd)
	for _, e := range ins {
		m.rows = append(m.rows, modelRow{e.Val, e.Row})
	}
	return fmt.Sprintf("Merge(%d inserts, %d deletes)", len(ins), len(del))
}

func (m *sumModel) check(after string) {
	ix, rng := m.ix, m.rng
	if err := ix.Validate(); err != nil {
		m.fatalf("after %s: %v", after, err)
	}
	if ix.Len() != len(m.rows) {
		m.fatalf("after %s: index holds %d values, model %d", after, ix.Len(), len(m.rows))
	}
	if (ix.Rows() != nil) != m.rowsOn {
		m.fatalf("after %s: row ids attached %v, want %v", after, ix.Rows() != nil, m.rowsOn)
	}
	got, want := make([]modelRow, ix.Len()), slices.Clone(m.rows)
	for i, v := range ix.AppendValues(nil) {
		got[i].v = v
		if m.rowsOn {
			got[i].r = ix.Rows()[i]
		} else {
			want[i].r = 0
		}
	}
	byPair := func(a, b modelRow) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.r, b.r)
	}
	slices.SortFunc(got, byPair)
	slices.SortFunc(want, byPair)
	if !slices.Equal(got, want) {
		m.fatalf("after %s: the index holds other entries than the model", after)
	}
	for i := 0; i < 3; i++ {
		lo, hi := m.bounds()
		wc, ws := m.countSum(lo, hi)
		if lo >= hi {
			wc, ws = 0, 0
		}
		// A lookup answers only when both bounds are boundaries, and then
		// without reading a value; the cracking select always answers, and
		// leaves the boundaries the second lookup must hit.
		c, s, estimate, ok := ix.LookupCountSum(lo, hi)
		if ok && (c != wc || s != ws) {
			m.fatalf("after %s: LookupCountSum[%d, %d) = %d/%d, model %d/%d", after, lo, hi, c, s, wc, ws)
		}
		// It answers from the positions and sums of the crack it makes, and
		// without a radix pass it partitions exactly what the lookup estimated.
		before := ix.Work()
		if c, s := ix.CrackCountSum(lo, hi); c != wc || s != ws {
			m.fatalf("after %s: CrackCountSum[%d, %d) = %d/%d, model %d/%d", after, lo, hi, c, s, wc, ws)
		}
		if did := ix.Work() - before; ix.radixMin <= 0 && did != int64(estimate) {
			m.fatalf("after %s: CrackCountSum[%d, %d) partitioned %d values, the lookup estimated %d", after, lo, hi, did, estimate)
		}
		if err := ix.Validate(); err != nil {
			m.fatalf("after %s and CrackCountSum[%d, %d): %v", after, lo, hi, err)
		}
		if c, s, _, ok := ix.LookupCountSum(lo, hi); ok != (lo < hi && len(m.rows) > 0) || c != wc || s != ws {
			m.fatalf("after %s and a crack: LookupCountSum[%d, %d) = %d/%d hit %v, model %d/%d", after, lo, hi, c, s, ok, wc, ws)
		}
		from, to := rng.IntN(ix.Len()+3)-1, rng.IntN(ix.Len()+3)-1
		wc, ws = plainCountSum(ix.AppendValues(nil), from, to)
		if c, s := ix.CountSum(from, to); c != wc || s != ws {
			m.fatalf("after %s: CountSum(%d, %d) = %d/%d, plain loop %d/%d", after, from, to, c, s, wc, ws)
		}
	}
	if err := ix.Validate(); err != nil {
		m.fatalf("after %s and the checks' own cracks: %v", after, err)
	}
}

func TestPropertySumsMatchModel(t *testing.T) {
	for _, attached := range []bool{false, true} {
		t.Run(map[bool]string{false: "values-only", true: "attached"}[attached], func(t *testing.T) {
			runSumModel(t, attached)
		})
	}
}

func runSumModel(t *testing.T, attached bool) {
	programs := 1000
	if testing.Short() {
		programs = 200
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
		m := &sumModel{t: t, seed: seed, rng: rng, palette: seed % 4, rowsOn: attached}
		n := rng.IntN(200)
		vals := make([]int64, n)
		rows := make([]uint32, n)
		for i := range vals {
			vals[i], rows[i] = m.value(), uint32(i)
			m.rows = append(m.rows, modelRow{vals[i], rows[i]})
		}
		m.nextRow = uint32(n)
		if !attached {
			rows = nil
		}
		m.ix = New(vals, rows)
		m.ix.SetRadixMinPiece([]int{0, 2, 16, 64}[rng.IntN(4)])
		m.check("New")
		for steps := 20 + rng.IntN(40); steps > 0; steps-- {
			ix, sorted, work, cracks := m.ix, m.ix.Sorted(), m.ix.Work(), m.ix.Cracks()
			op := m.step()
			m.check(op)
			if sorted && m.ix == ix && ix.Sorted() && (ix.Work() != work || ix.Cracks() != cracks) {
				m.fatalf("%s on a sorted index partitioned %d values and made %d cracks", op, ix.Work()-work, ix.Cracks()-cracks)
			}
		}
	}
}
