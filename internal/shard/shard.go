// Package shard partitions one logical column into N per-shard sub-engines
// so that cracking, scans and idle refinement parallelise *within* a single
// query instead of only across queries. This follows the partitioned
// parallel-cracking design of "Main Memory Adaptive Indexing for Multi-core
// Systems" (Alvarez et al., DaMoN 2014): instead of many cores contending on
// one shared cracker index, each shard owns a private cracker index (crack
// tree, cracked copy and their latches) and
// pending update buffer, and a select visits every shard and merges the
// partial aggregates — one goroutine per shard when the shards'
// work pays for the hand-off, one shard after the other on the caller's
// goroutine when it does not (see "Fan-out rule").
//
// # Partitioning scheme
//
// Shards are chunk partitions in row space, striped round-robin: global row g
// lives in part g % N at local position g / N. Striping was chosen over value
// range partitioning deliberately:
//
//   - routing is O(1) arithmetic with no routing table to maintain — a row id
//     maps to (part, local) and back without consulting any value bounds;
//   - every part receives a statistically identical sample of the value
//     domain, so per-part crack trees converge uniformly, fan-out work is
//     balanced under any workload, and no rebalancing is ever needed under
//     skewed inserts (range partitioning needs a-priori knowledge of the
//     value distribution and splits when the distribution drifts);
//   - every range select touches all parts, each holding 1/N of the work: a
//     large select splits evenly over N cores, and a small one is N small
//     lookups on one.
//
// The cost is that selective point-ish queries cannot prune shards; range
// pruning is a property of value partitioning and belongs to a later PR if a
// workload demands it.
//
// # Fan-out rule
//
// Handing a part to another goroutine costs 7-25 us — more than a converged
// lookup or a crack of a cache-sized piece takes. So every select first probes
// each part on the caller's goroutine (Part.ProbeAt: the part answers through
// the design it holds, or declines with the values answering would touch),
// and the parts that declined get a goroutine each only when that takes at
// least costmodel.FanOutMinWork values off the caller's path (Column.CountSum:
// one rule for all five strategies, nothing to configure). FanOutCountSum is
// the unconditional fan-out the benchmark rig calls.
//
// # Interface discipline
//
// Part is deliberately narrow and value-oriented — every method takes and
// returns plain values (ranges, counts, sums, row ids), never shared mutable
// state — so a Part could later live behind internal/server's wire protocol
// on another node: the probe/fan-out/merge in Column is already the client
// side of a scatter/gather, and nothing in the engine above this layer would
// change.
//
// # Write path
//
// Writers never take a part's RW latch. Every insert and delete lands in the
// part's ingest queue (updates.Queue) behind its own leaf mutex, so an
// append costs one row-id fetch-add plus one short critical section per
// column, concurrent with any number of selects and idle refinements.
// Buffered updates reach the indexed structures through MergeStep, which IS
// a refinement action: the holistic tuner ranks "drain this shard's queue"
// against "crack this shard" (see internal/core and costmodel.MergeScore)
// and the idle pool executes whichever pays more, so merging happens in
// traffic gaps. A queue that reaches DefaultIngestCap forces an inline merge
// on the writer that crossed the cap — amortised batching, the backstop for
// strategies with no idle pool.
//
// MergeStep applies deletes in any order (tombstones) but inserts only in
// dense local-row order: the base storage is a positional array, so drained
// inserts must be exactly rows next, next+stride, next+2·stride... A row id
// still in flight (assigned but not yet enqueued) leaves a gap that pauses
// insert draining until it lands; deletes and earlier rows still drain. Once
// the base has grown, the batch is sorted by value and each index the part
// has takes it in one Merge: one pass over the pieces, not one per row.
//
// # One index per part
//
// A part holds at most one cracker.Index: cracked (adaptive, holistic) or
// sorted to completion by BuildSorted (offline, online), the limit
// refinement moves toward. ProbeAt, the merge, FirstLive and the snapshot each
// ask that one index; a part with none scans. DropSorted frees a sorted index
// outright, since nothing outside the part holds it.
//
// # Delete resolution
//
// A delete names a value, not a row: Column.FirstLive resolves it to the
// lowest live global row id, asking every part (Part.firstLive) and taking
// the minimum. Within a part every buffered insert's row lies above every
// merged row — its local position is at least len(vals) — since a merge
// drains only the buffer's row-ordered prefix from the next position
// (updates.Queue.Drain). So a part answers through its index — the one piece
// holding the value, or a sorted index's run of duplicates, under the
// index's shared latch, cracking nothing — or, with none, an early-exit scan
// of its rows, skipping rows with a buffered delete, and reads its buffered
// inserts only on a miss; and Part.deleteLocal tells a merged row from a
// buffered one by position alone. The index holds exactly the merged,
// non-tombstoned rows, so both paths name the same row; the caller's
// exclusive table lock is held for a piece, not a column. An index is built
// or restored values-only, and the column's first resolution through it
// attaches its row ids (Column.AttachRows): a column no delete names never
// pays for them.
//
// # One latch per read
//
// A select must observe every row exactly once while merges move rows from
// the queue into the structures. Every part read — ProbeAt, ScanCountSumAt
// and CrackedSelectAt — holds the part's shared latch across its index read and
// the queue's net CountSum (Part.read). A merge moves rows only under the
// exclusive latch, so no row can leave the queue for the structures between
// the two reads: each row is counted in exactly one of them. Writers keep
// enqueueing meanwhile; a row is seen if its enqueue preceded the queue read.
// The logical contents get their consistent cut from this one latch, while
// structural refinement — cracking under the index's own latches — stays
// invisible to it.
//
// # Visibility
//
// A column may share a visibility watermark with the other columns of its
// table (Config.Visible): the engine enqueues an insert batch before its log
// record is durable and publishes it whole, by raising the watermark past
// its rows, once it is. Buffered rows at or above the watermark count for
// no read, resolve no delete and stay in the queue at a merge. A select
// reads every part at one watermark (Column.CountSum), so it sees a batch in
// every part or in none. A merge drains only rows visible when it
// runs, which may be past the watermark a running select loaded; the part
// read subtracts such merged rows again (Part.read), so each read counts
// exactly the live rows below its watermark. Without a watermark every
// buffered row is visible from its enqueue.
//
// # Latching
//
// Each Part carries its own reader/writer latch with exactly the semantics
// the unsharded column had (see internal/engine): the write side is only for
// structural changes (materialising the cracked copy, merging the ingest
// queue, sorting or freeing the index, tombstoning), while the read side
// admits any number of queries and idle workers, which coordinate through
// the cracker index's own latches: a lookup or aggregate reads the crack
// tree under shared latches, and a crack holds only the latch of the piece
// it partitions (see cracker.Index), so cracks of different pieces run at
// once. Only the part takes its latch: the tuner
// calls its idle crack action, RandomCrack, which materialises the cracked
// copy under the exclusive latch on first use and then acts under the shared
// one. The ingest queue's mutex is a
// leaf below the part latch: queue methods never take the latch, and both
// "latch then queue" (merges, reads) and "queue only" (writers) orders are
// deadlock free. The idle pool's claim/re-check protocol and the
// load gate's zero-in-flight CAS apply per part unchanged: each Part
// registers with the holistic tuner as its own action-queue shard, so during
// a traffic gap N parts drain refinement actions concurrently.
package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"holistic/internal/costmodel"
	"holistic/internal/cracker"
	"holistic/internal/scan"
	"holistic/internal/updates"
)

// DefaultIngestCap is the per-part queue length that forces an inline merge
// on the writer that crossed it — the batching backstop when no idle pool
// drains the queue. Large enough that bursts amortise, small enough that
// reads' O(queue) combine stays cheap.
const DefaultIngestCap = 4096

// MaxRows is the largest number of rows a column may hold. Row ids are
// carried as uint32 inside index structures to halve their memory footprint,
// which caps columns at 2^32-1 rows — far above the paper's 10^8 scale.
const MaxRows = math.MaxUint32

// ErrTooLarge is returned when an operation would grow a column past MaxRows.
var ErrTooLarge = errors.New("shard: too many rows")

// Config fixes a sharded column's physical-design parameters at creation.
type Config struct {
	// Shards is the number of parts. <= 1 means a single part, which
	// behaves exactly like the pre-sharding column (and names itself after
	// the bare column, keeping stats and ranking output identical).
	Shards int
	// Seed is read by nothing: cracking is deterministic. It stays so that
	// callers which still set it keep compiling.
	Seed uint64

	// Visible, when set, is the visibility watermark the column shares
	// with the rest of its table: rows at or above it are not yet published
	// (see "Visibility"). Nil makes every row visible once enqueued.
	Visible *atomic.Int64

	// radixMin, when non-zero, replaces costmodel.DefaultRadixMinPiece
	// (< 0 disables radix-first cracking). Only this package's tests set it.
	radixMin int
}

// visible loads the visibility watermark; updates.AllRows without one.
func (c *Config) visible() int64 {
	if c.Visible == nil {
		return updates.AllRows
	}
	return c.Visible.Load()
}

// radixMinPiece is the radix-first coarse-cracking threshold handed to each
// part's cracker index (<= 0 disables).
func (c Config) radixMinPiece() int {
	if c.radixMin == 0 {
		return costmodel.DefaultRadixMinPiece
	}
	return max(c.radixMin, 0)
}

func (c Config) shards() int {
	if c.Shards <= 1 {
		return 1
	}
	return c.Shards
}

// Column is one logical column split into per-shard Parts, with fan-out and
// merge of range aggregates. Reads visit every part; appends and deletes
// are safe for concurrent use — appends only touch per-part ingest queues,
// while the caller (the engine's table lock, held shared by inserts and
// exclusively by deletes) keeps row-level delete/insert atomicity across
// columns.
type Column struct {
	name  string
	cfg   Config
	parts []*Part

	// selectHook, when set, is invoked with the part index as each fan-out
	// worker starts. Tests install a rendezvous here to prove that two
	// parts of one select really execute concurrently.
	selectHook atomic.Pointer[func(part int)]
}

// NewColumn builds a column over vals, which it adopts as the parts'
// storage whatever their number: the caller must not reuse it. Global row g
// lives in part g % N at local position g / N, and the parts lie in vals'
// memory one after the other, part 0 first. A one-part column keeps vals as
// it is. An N-part column saves the rows past part 0's length, writes parts
// 1..N-1 over them and moves part 0 down into the front of vals, so a load
// copies (N-1)/N of the column aside, not all of it into new parts. Each
// part leaves with its value bounds, so neither registration nor the first
// touch rescans it.
//
// Each step is cut into chunks, one per GOMAXPROCS worker. As with a
// select's fan-out, a step gets more than the caller's goroutine only when
// it holds at least costmodel.FanOutMinWork values, so a small column loads
// on the caller's goroutine.
func NewColumn(name string, vals []int64, cfg Config) (*Column, error) {
	if len(vals) > MaxRows {
		return nil, ErrTooLarge
	}
	n := cfg.shards()
	c := &Column{name: name, cfg: cfg}
	// Part i holds global rows i, i+n, ...: ceil((len-i)/n) of them; part 0
	// is the longest.
	head := (len(vals) + n - 1) / n
	for i, at := 0, 0; i < n; i++ {
		l := (len(vals) - i + n - 1) / n
		c.addPart(vals[at:at+l:at+l], nil)
		at += l
	}
	tail := slices.Clone(vals[head:]) // global rows head.., saved before parts 1..n-1 are written over them
	bounds := make([][]partBounds, loadWorkers(len(vals)))
	inParallel(len(bounds), head, func(w, a, b int) { bounds[w] = c.loadStripes(vals[:head], tail, a, b) })
	if n > 1 {
		bounds[0][0] = c.movePart0(vals, tail)
	}
	for i, p := range c.parts {
		var pb partBounds
		for _, wb := range bounds {
			if wb[i].ok {
				pb.widen(wb[i].lo, wb[i].hi)
			}
		}
		p.lo, p.hi = pb.lo, pb.hi
	}
	return c, nil
}

// movePart0 moves part 0 of an N-part load (N > 1) into place and returns
// its bounds: local row j moves from global row j*N — vals[j*N], or tail
// once that is past part 0's length — down to vals[j], a range of rows [lo,
// hi) with hi <= lo*N at a time, so no row of a range is written where
// another row of it still reads.
func (c *Column) movePart0(vals, tail []int64) partBounds {
	n, head := len(c.parts), len(c.parts[0].vals)
	split := (head + n - 1) / n // rows j*n >= head from split on
	var b0 partBounds
	if head > 0 {
		b0.widen(vals[0], vals[0])
	}
	wb := make([]partBounds, runtime.GOMAXPROCS(0))
	for lo := 1; lo < head; {
		hi := min(head, lo*n)
		inParallel(loadWorkers(hi-lo), hi-lo, func(w, a, b int) {
			a, b = lo+a, lo+b
			if a == b {
				return
			}
			l, h := int64(math.MaxInt64), int64(math.MinInt64)
			j := a
			for ; j < min(b, split); j++ {
				v := vals[j*n]
				vals[j] = v
				l, h = min(l, v), max(h, v)
			}
			for ; j < b; j++ {
				v := tail[j*n-head]
				vals[j] = v
				l, h = min(l, v), max(h, v)
			}
			wb[w].widen(l, h)
		})
		lo = hi
	}
	for _, b := range wb {
		if b.ok {
			b0.widen(b.lo, b.hi)
		}
	}
	return b0
}

// loadWorkers is how many workers a load step over m values gets: one per
// GOMAXPROCS, each with at least costmodel.FanOutMinWork values.
func loadWorkers(m int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/costmodel.FanOutMinWork))
}

// inParallel runs f over [0, m) cut into workers chunks, chunk w being
// [m*w/workers, m*(w+1)/workers); the first runs on the caller's goroutine.
func inParallel(workers, m int, f func(w, a, b int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, m*w/workers, m*(w+1)/workers)
		}()
	}
	f(0, 0, m/workers)
	wg.Wait()
}

// partBounds is one part's value bounds over (part of) a load.
type partBounds struct {
	lo, hi int64
	ok     bool // lo and hi bound at least one value
}

func (b *partBounds) widen(lo, hi int64) {
	if !b.ok {
		b.lo, b.hi, b.ok = lo, hi, true
	}
	b.lo, b.hi = min(b.lo, lo), max(b.hi, hi)
}

// loadBlock is how many local rows of every part loadStripes visits before
// moving on: the block's stripes of vals (n·32 KiB) stay in cache while each
// part reads its column of them, so vals is read from memory once, not once
// per part.
const loadBlock = 1 << 12

// loadStripes writes local rows [a, b) of parts 1..n-1 and returns their
// bounds over those rows — of part 0's too when it is the only part, which
// stays where it is. Global row g is read from head while g < len(head) and
// from tail after; parts shorter than b stop at their length.
func (c *Column) loadStripes(head, tail []int64, a, b int) []partBounds {
	n := len(c.parts)
	out := make([]partBounds, n)
	for ba := a; ba < b; ba += loadBlock {
		if n == 1 {
			lo, hi, _ := scan.MinMax(head[ba:min(ba+loadBlock, b)])
			out[0].widen(lo, hi)
			continue
		}
		for i, p := range c.parts[1:] {
			if end := min(ba+loadBlock, b, len(p.vals)); ba < end {
				out[i+1].widen(gatherStripe(p.vals[ba:end], head, tail, ba*n+i+1, n))
			}
		}
	}
	return out
}

// gatherStripe copies rows g, g+n, ... into dst (not empty), reading head,
// then tail, and returns their bounds.
func gatherStripe(dst, head, tail []int64, g, n int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	j := 0
	for ; j < len(dst) && g < len(head); j++ {
		v := head[g]
		dst[j] = v
		lo, hi = min(lo, v), max(hi, v)
		g += n
	}
	for g -= len(head); j < len(dst); j++ {
		v := tail[g]
		dst[j] = v
		lo, hi = min(lo, v), max(hi, v)
		g += n
	}
	return lo, hi
}

// addPart appends the column's next part over vals, its merged storage by
// local position, which it adopts, with deleted[i] marking a tombstoned row
// (nil: none). The flags are packed into the part's bitmap; a part with no
// dead row gets none, since a part allocates it at its first delete.
// Loading and snapshot restore build every part here.
func (c *Column) addPart(vals []int64, deleted []bool) *Part {
	i, n := len(c.parts), c.cfg.shards()
	p := &Part{name: c.name, id: i, stride: n, cfg: &c.cfg, vals: vals}
	if n > 1 {
		p.name = fmt.Sprintf("%s#%d", c.name, i)
	}
	for local, d := range deleted {
		if d {
			if p.deleted == nil {
				p.deleted = make(bitmap, words(len(vals)), words(cap(vals)))
			}
			p.deleted.set(local)
			p.nDeleted++
		}
	}
	c.parts = append(c.parts, p)
	return p
}

// bitmap holds one bit per local position: bit i%64 of word i/64.
type bitmap []uint64

// words is the length of a bitmap over n positions.
func words(n int) int { return (n + 63) / 64 }

func (b bitmap) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitmap) set(i int) { b[i/64] |= 1 << (i % 64) }

// Name returns the logical column name.
func (c *Column) Name() string { return c.name }

// Shards returns the number of parts.
func (c *Column) Shards() int { return len(c.parts) }

// Parts returns the per-shard sub-engines, in shard order.
func (c *Column) Parts() []*Part { return c.parts }

// SetSelectHook installs (or clears, with nil) the fan-out test hook. Safe
// to call while selects run.
func (c *Column) SetSelectHook(h func(part int)) {
	if h == nil {
		c.selectHook.Store(nil)
		return
	}
	c.selectHook.Store(&h)
}

// FanOutCountSum runs f on every part — one goroutine per part beyond the
// first, which runs on the caller's goroutine — and returns the merged
// (count, sum), whatever the work: the engine's selects use CountSum.
func (c *Column) FanOutCountSum(f func(p *Part) (int, int64)) (int, int64) {
	return c.fanOut(c.parts, f)
}

func (c *Column) fanOut(parts []*Part, f func(p *Part) (int, int64)) (int, int64) {
	var count, sum atomic.Int64
	inParallel(len(parts), len(parts), func(_, a, _ int) {
		p := parts[a]
		if h := c.selectHook.Load(); h != nil {
			(*h)(p.id)
		}
		n, s := f(p)
		count.Add(int64(n))
		sum.Add(s)
	})
	return int(count.Load()), sum.Load()
}

// CountSum answers [lo, hi) over every part in two steps, every part at
// visibility watermark vis (see "Visibility"). probe asks each
// part, on the caller's goroutine, for the answer or — ok false — for an
// estimate of the values answering would touch (the engine passes
// Part.ProbeAt). run — ScanCountSumAt or CrackedSelectAt — then answers the
// parts that declined.
// The caller takes the largest itself either way, so a fan-out takes
// total-largest off its path, and only when that is at least
// costmodel.FanOutMinWork do they get a goroutine each: one part, nothing to
// do, or one part holding all the work stays on the caller's goroutine.
func (c *Column) CountSum(lo, hi, vis int64,
	probe func(p *Part, lo, hi, vis int64) (count int, sum int64, work int, ok bool),
	run func(p *Part, lo, hi, vis int64) (int, int64),
) (count int, sum int64) {
	var buf [8]*Part // the declined parts; on the stack for up to 8
	todo := buf[:0]
	total, largest := 0, 0
	for _, p := range c.parts {
		cnt, s, work, ok := probe(p, lo, hi, vis)
		if ok {
			count, sum = count+cnt, sum+s
			continue
		}
		todo = append(todo, p)
		total, largest = total+work, max(largest, work)
	}
	if total-largest >= costmodel.FanOutMinWork {
		cnt, s := c.fanOut(todo, func(p *Part) (int, int64) { return run(p, lo, hi, vis) })
		return count + cnt, sum + s
	}
	for _, p := range todo {
		cnt, s := run(p, lo, hi, vis)
		count, sum = count+cnt, sum+s
	}
	return count, sum
}

// AppendAt enqueues v as global row g, where g was assigned by the caller
// (the table's atomic row counter, so every column of one row agrees on the
// id), and merges the row's part inline when the row pushed its queue to
// DefaultIngestCap — amortised maintenance, the backstop for strategies
// with no idle pool. The row must be visible once enqueued (a column with
// no watermark); a writer that publishes later calls Enqueue. Safe for
// concurrent use. Nothing in the kernel calls it: the benchmark rig
// (bench/) appends its rows with it by name.
func (c *Column) AppendAt(g uint32, v int64) {
	if p := c.Enqueue(g, v); p != nil {
		p.MergeStep(0)
	}
}

// Enqueue buffers v as global row g without touching any part latch, like
// AppendAt, but leaves the inline merge to the caller: it returns the part
// whose queue the row pushed to a multiple of DefaultIngestCap (nil if
// none), which the caller merges once the row is visible — a merge drains
// no invisible row.
func (c *Column) Enqueue(g uint32, v int64) *Part {
	p := c.parts[int(g)%len(c.parts)]
	if qlen := p.ingest.Insert(v, g); qlen >= DefaultIngestCap && qlen%DefaultIngestCap == 0 {
		return p
	}
	return nil
}

// AttachRows gives every part's values-only index its row ids at once, one
// goroutine per part beyond the first, so the caller waits for the slowest
// part's attach, not for their sum. A part whose live base is not its
// copy's multiset (cracker.Index.AttachRows) stays values-only, and the
// error names it: the engine's DELETE attaches before it deletes anything.
func (c *Column) AttachRows() error {
	if !slices.ContainsFunc(c.parts, (*Part).valuesOnly) {
		return nil
	}
	errs := make([]error, len(c.parts))
	inParallel(len(c.parts), len(c.parts), func(_, a, _ int) { errs[a] = c.parts[a].attachRows() })
	return errors.Join(errs...)
}

// FirstLive returns the lowest global row id holding value v live — merged
// and not tombstoned or pending-deleted, or still buffered in an ingest
// queue below the visibility watermark — the same "first live row" contract
// the unsharded column had. It attaches row ids first (AttachRows) but
// does not report a refusal; a part that refused is answered by a scan.
func (c *Column) FirstLive(v int64) (row uint32, ok bool) {
	_ = c.AttachRows() // a refusal is AttachRows' to report; that part scans below
	vis := c.cfg.visible()
	best := uint32(0)
	for _, p := range c.parts {
		if g, found := p.firstLive(v, vis); found && (!ok || g < best) {
			best, ok = g, true
		}
	}
	return best, ok
}

// DeleteRow deletes global row g in its part: a merged row gets a buffered
// delete (applied as a tombstone at the next merge), a still-buffered insert
// a delete paired with it in the queue (the pair nets to zero immediately
// and drains as materialise-then-tombstone, keeping row order dense). The
// row's position says which it is. It returns the deleted value.
func (c *Column) DeleteRow(g uint32) int64 {
	n := len(c.parts)
	return c.parts[int(g)%n].deleteLocal(int(g) / n)
}

// Live returns the number of live (non-deleted) rows, counting buffered
// inserts and subtracting buffered deletes.
func (c *Column) Live() int {
	live := 0
	for _, p := range c.parts {
		live += p.Live()
	}
	return live
}

// MergePending fully drains every part's ingest queue into its structures
// and returns the operations applied. Quiesce helper for tests, validation
// and checkpoints; concurrent writers may refill the queues immediately.
func (c *Column) MergePending() int {
	total := 0
	for _, p := range c.parts {
		for {
			n := p.MergeStep(0)
			total += n
			if n == 0 {
				break
			}
		}
	}
	return total
}

// HasSorted reports whether every part's index is sorted to completion
// (builds are all-or-nothing per column).
func (c *Column) HasSorted() bool {
	for _, p := range c.parts {
		if !p.HasSorted() {
			return false
		}
	}
	return true
}

// AnyCracked reports whether any part holds a cracked, unsorted index.
func (c *Column) AnyCracked() bool {
	for _, p := range c.parts {
		p.mu.RLock()
		cracked := p.crack != nil && !p.crack.Sorted()
		p.mu.RUnlock()
		if cracked {
			return true
		}
	}
	return false
}

// BuildSorted sorts every part's index to completion, one goroutine per part
// beyond the first (each build holds only its own part's latch).
func (c *Column) BuildSorted() {
	inParallel(len(c.parts), len(c.parts), func(_, a, _ int) { c.parts[a].BuildSorted() })
}

// DropSorted frees every part's sorted index.
func (c *Column) DropSorted() {
	for _, p := range c.parts {
		p.DropSorted()
	}
}

// Validate checks every part's index invariants (quiesced callers).
func (c *Column) Validate() error {
	for _, p := range c.parts {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// PieceStats aggregates the parts' piece counts: (pieces, average piece
// size). A part never cracked counts as one piece over its live rows, so a
// fresh single-part column reports (1, n).
func (c *Column) PieceStats() (pieces int, avg float64) {
	total := 0
	for _, p := range c.parts {
		pc, n := p.PieceStats()
		pieces += pc
		total += n
	}
	if pieces == 0 {
		return 0, 0
	}
	return pieces, float64(total) / float64(pieces)
}

// PendingCounts sums the parts' buffered (inserts, deletes).
func (c *Column) PendingCounts() (ins, del int) {
	for _, p := range c.parts {
		i, d := p.ingest.Counts()
		ins += i
		del += d
	}
	return ins, del
}

// Part is one shard of a column: a contiguous stripe of rows with its own
// storage, index (see "One index per part"), ingest queue and latch. It
// implements the holistic tuner's Column interface (internal/core), so each
// part is an independent action-queue shard for the idle pool, offering
// crack and merge actions.
type Part struct {
	name   string
	id     int
	stride int
	cfg    *Config

	// ingest buffers inserts and deletes behind its own leaf mutex; writers
	// never take mu.
	ingest updates.Queue

	mu       sync.RWMutex
	vals     []int64        // merged storage by local position (local i is global row i·stride+id)
	deleted  bitmap         // tombstones, one bit per local position; nil until the first delete merges
	nDeleted int            // bits set in deleted
	crack    *cracker.Index // nil until materialised; may be sorted

	// lo and hi bound vals, tombstoned rows included, whenever vals is not
	// empty: the load or restore sets them and merges widen them, under the
	// exclusive latch.
	lo, hi int64
}

// Name implements the tuner's Column interface; part names are
// "table.column#i" (bare "table.column" for a single-shard column).
func (p *Part) Name() string { return p.name }

// RLock takes the part's shared latch. No package of the kernel calls RLock,
// RUnlock, Lock, Unlock or CrackIndex — a part takes its own latches — but
// the frozen benchmark rig (bench/) reaches past the part to its index by
// these names.
func (p *Part) RLock() { p.mu.RLock() }

// RUnlock releases the shared latch.
func (p *Part) RUnlock() { p.mu.RUnlock() }

// globalRow maps a local position to the global row id.
func (p *Part) globalRow(local int) uint32 {
	return uint32(local*p.stride + p.id)
}

// Live returns the part's live rows: merged minus tombstones, plus buffered
// inserts, minus buffered deletes.
func (p *Part) Live() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ins, del := p.ingest.Counts()
	return len(p.vals) - p.nDeleted + ins - del
}

// Lock takes the part's exclusive latch; see RLock.
func (p *Part) Lock() { p.mu.Lock() }

// Unlock releases the exclusive latch.
func (p *Part) Unlock() { p.mu.Unlock() }

// CrackIndex is crackIndexLocked for the benchmark rig; see RLock.
func (p *Part) CrackIndex() *cracker.Index { return p.crackIndexLocked() }

// Cracked returns the cracker index if materialised — sorted or not — else
// nil. Callers hold either latch mode; the index stays the part's only while
// they do (DropSorted frees it).
func (p *Part) Cracked() *cracker.Index { return p.crack }

// crackIndexLocked returns the part's cracker index, materialising the
// values-only cracked copy on first use — straight from the base column
// (radix pass included) when no row is tombstoned, else from a copy. Callers
// hold the exclusive latch.
func (p *Part) crackIndexLocked() *cracker.Index {
	if p.crack == nil {
		if p.nDeleted == 0 {
			p.attachCrackLocked(cracker.NewFromBase(p.vals, p.lo, p.hi, p.cfg.radixMinPiece()))
		} else {
			p.attachCrackLocked(cracker.New(p.liveSnapshotLocked(), nil))
		}
	}
	return p.crack
}

// attachCrackLocked adopts ix as the part's cracker index, applying the
// configured radix threshold. Used by lazy materialisation and by snapshot
// restore.
func (p *Part) attachCrackLocked(ix *cracker.Index) {
	ix.SetRadixMinPiece(p.cfg.radixMinPiece())
	p.crack = ix
}

// liveSnapshotLocked copies the values of the merged, non-tombstoned rows,
// the multiset a values-only copy holds. Rows with a buffered (not yet
// applied) delete ARE included: reads subtract them through the queue's net
// CountSum until the merge tombstones them, keeping every structure
// consistent with the same merged-state boundary.
func (p *Part) liveSnapshotLocked() []int64 {
	if p.nDeleted == 0 {
		return slices.Clone(p.vals)
	}
	vals := make([]int64, 0, len(p.vals)-p.nDeleted)
	for i, v := range p.vals {
		if !p.deleted.has(i) {
			vals = append(vals, v)
		}
	}
	return vals
}

// deadLocked reports whether the row at local position is tombstoned.
// Callers hold either latch mode.
func (p *Part) deadLocked(local int) bool {
	return p.nDeleted != 0 && p.deleted.has(local)
}

// materialise builds the cracked copy under the exclusive latch if the part
// has no index.
func (p *Part) materialise() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crackIndexLocked()
}

// BuildSorted sorts the part's index to completion; a part with none first
// copies its merged live values (an offline build is copy plus sort, not a
// first touch).
func (p *Part) BuildSorted() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crack == nil {
		p.attachCrackLocked(cracker.New(p.liveSnapshotLocked(), nil))
	}
	p.crack.Sort()
}

// DropSorted frees a sorted index: the part answers by scans again, and a
// later crack materialises a fresh cracked copy.
func (p *Part) DropSorted() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crack != nil && p.crack.Sorted() {
		p.crack = nil
	}
}

// HasSorted reports whether the part's index is sorted to completion.
func (p *Part) HasSorted() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.crack != nil && p.crack.Sorted()
}

// read is every part read at visibility watermark vis: it holds the shared
// latch across merged — an index read of the merged rows, which must not
// take latches itself — and, when merged answers (ok), the ingest queue's
// net contribution on [lo, hi) below vis, which it adds. A merge needs the
// exclusive latch, so no row moves from the queue to the structures between
// the two reads (see "One latch per read"); merged rows at or above vis,
// which a merge published after vis was loaded, are subtracted again (see
// "Visibility").
func (p *Part) read(lo, hi, vis int64, merged func() (int, int64, bool)) (count int, sum int64, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if count, sum, ok = merged(); ok {
		dc, ds := p.ingest.CountSum(lo, hi, vis)
		tc, ts := p.mergedFromLocked(lo, hi, vis)
		count, sum = count+dc-tc, sum+ds-ts
	}
	return count, sum, ok
}

// mergedFromLocked counts the merged live rows in [lo, hi) whose global row
// id is at least vis. Callers hold either latch mode.
func (p *Part) mergedFromLocked(lo, hi, vis int64) (count int, sum int64) {
	n := len(p.vals)
	if n == 0 || vis > int64(p.globalRow(n-1)) {
		return 0, 0
	}
	from := max(vis-int64(p.id)+int64(p.stride)-1, 0) / int64(p.stride)
	for i := int(from); i < n; i++ {
		if v := p.vals[i]; v >= lo && v < hi && !p.deadLocked(i) {
			count++
			sum += v
		}
	}
	return count, sum
}

// ScanCountSumAt answers [lo, hi) at visibility watermark vis with a full
// scan of the merged rows plus the queue's net contribution.
func (p *Part) ScanCountSumAt(lo, hi, vis int64) (int, int64) {
	count, sum, _ := p.read(lo, hi, vis, func() (int, int64, bool) {
		c, s := p.scanLocked(lo, hi)
		return c, s, true
	})
	return count, sum
}

func (p *Part) scanLocked(lo, hi int64) (int, int64) {
	if p.nDeleted == 0 {
		return scan.CountSum(p.vals, lo, hi)
	}
	count, sum := 0, int64(0)
	for i, v := range p.vals {
		if !p.deleted.has(i) && v >= lo && v < hi {
			count++
			sum += v
		}
	}
	return count, sum
}

// CrackedSelect is CrackedSelectAt at the watermark now.
func (p *Part) CrackedSelect(lo, hi int64) (int, int64) {
	return p.CrackedSelectAt(lo, hi, p.cfg.visible())
}

// CrackedSelectAt is the adaptive select operator on one part, at visibility
// watermark vis. It runs under
// the shared latch: cracking [lo, hi) latches only the pieces it
// partitions, and a select whose bounds are already cracked reads the crack
// tree and subtracts two boundary sums (cracker.Index.CrackCountSum).
// Only materialising the cracked copy, on the part's first touch, takes the
// exclusive latch; the select then reads as any other.
func (p *Part) CrackedSelectAt(lo, hi, vis int64) (int, int64) {
	for {
		count, sum, ok := p.read(lo, hi, vis, func() (int, int64, bool) {
			if p.crack == nil {
				return 0, 0, false
			}
			c, s := p.crack.CrackCountSum(lo, hi)
			return c, s, true
		})
		if ok {
			return count, sum
		}
		p.materialise()
	}
}

// RandomCrack is the tuner's crack action on this part
// (cracker.Index.RandomCrack); it returns the values partitioned. It runs
// under the shared latch, materialising the cracked copy first if the part
// has none, and latches only the piece it partitions, as a select's crack
// does.
func (p *Part) RandomCrack(rng *rand.Rand) int {
	p.mu.RLock()
	for p.crack == nil {
		p.mu.RUnlock()
		p.materialise()
		p.mu.RLock()
	}
	defer p.mu.RUnlock()
	return p.crack.RandomCrack(rng)
}

// ProbeAt answers [lo, hi) at visibility watermark vis through the design
// the part holds, under the shared latches and without building or cracking
// anything: its index
// answers when both bounds already are boundaries (the difference of their
// sums) — always, once sorted. Otherwise it declines (ok false) with the
// values a run would touch: the pieces the missing bounds fall in, or the
// merged live rows when the part has no index.
func (p *Part) ProbeAt(lo, hi, vis int64) (count int, sum int64, work int, ok bool) {
	count, sum, ok = p.read(lo, hi, vis, func() (c int, s int64, answered bool) {
		if p.crack != nil {
			c, s, work, answered = p.crack.LookupCountSum(lo, hi)
			return c, s, answered
		}
		work = len(p.vals) - p.nDeleted
		return 0, 0, false
	})
	return count, sum, work, ok
}

// MergeStep drains up to max buffered operations (0 = all) into the part's
// structures under the exclusive latch. It returns the operations applied.
// This is the tuner's merge action and the writer's inline cap merge; both
// are safe to race.
func (p *Part) MergeStep(max int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mergeLocked(max)
}

func (p *Part) mergeLocked(budget int) int {
	ins, del := p.ingest.Drain(p.globalRow(len(p.vals)), p.stride, budget, p.cfg.visible())
	n := len(ins) + len(del)
	if n == 0 {
		return 0
	}
	live := del[:0]
	for _, e := range del {
		local := int(e.Row) / p.stride
		if local >= len(p.vals) || p.deadLocked(local) {
			// Defensive: Drain only releases deletes for merged rows, and the
			// queue dedups deletes per row, so neither case should occur.
			continue
		}
		if p.deleted == nil {
			p.deleted = make(bitmap, words(len(p.vals)), words(cap(p.vals)))
		}
		p.deleted.set(local)
		p.nDeleted++
		live = append(live, e)
	}
	// Row ids were bounds checked when assigned, and Drain releases inserts
	// in dense row order.
	if len(ins) > 0 {
		if len(p.vals) == 0 {
			p.lo, p.hi = ins[0].Val, ins[0].Val
		}
		at := len(p.vals)
		p.vals = cracker.GrowTo(p.vals, at+len(ins))
		for i, e := range ins {
			p.vals[at+i] = e.Val
			p.lo, p.hi = min(p.lo, e.Val), max(p.hi, e.Val)
		}
		if p.deleted != nil { // the new words are zero: no bit past len(p.vals) is ever set
			p.deleted = cracker.GrowTo(p.deleted, words(len(p.vals)))
		}
	}
	// The base grew in row order; the index takes the batch in value order.
	if p.crack != nil {
		updates.SortByVal(ins)
		updates.SortByVal(live)
		p.crack.Merge(ins, live)
	}
	return n
}

// PendingOps returns the part's buffered operation count — the tuner uses it
// to rank the merge action.
func (p *Part) PendingOps() int { return p.ingest.Len() }

// firstLive returns the lowest global row id in this part holding value v
// live: merged rows that are neither tombstoned nor pending-deleted, and
// buffered inserts below the visibility watermark vis. The merged rows are
// resolved through the part's index, which holds exactly them, so a DELETE
// costs one piece or a binary search (under the index's shared latch:
// nothing is cracked on the writer's path) instead of a scan; only a part
// whose index has no row ids (none, or an attach refused) scans, stopping
// at the first hit. Buffered rows lie above merged ones, so the queue is
// read only on a merged miss, under the same shared latch: no merge can
// move a buffered insert into the structures in between and hide it.
func (p *Part) firstLive(v, vis int64) (uint32, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	live := func(g uint32) bool { return !p.ingest.HasDelete(v, g) }
	if ix := p.crack; ix != nil && ix.HasRows() {
		if g, ok := ix.MinRowOf(v, live); ok {
			return g, true
		}
	} else {
		for i, val := range p.vals {
			if g := p.globalRow(i); val == v && !p.deadLocked(i) && live(g) {
				return g, true
			}
		}
	}
	return p.ingest.MinInsertRowFor(v, vis)
}

// valuesOnly reports whether the part's index has no row ids yet.
func (p *Part) valuesOnly() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.crack != nil && !p.crack.HasRows()
}

// attachRows gives the part's index, if any, its row ids from the merged
// rows, which move only under the part's exclusive latch.
func (p *Part) attachRows() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crack == nil {
		return nil
	}
	if err := p.crack.AttachRows(p.vals, p.globalRow(0), uint32(p.stride), p.deleted); err != nil {
		return fmt.Errorf("shard: part %s: %w", p.name, err)
	}
	return nil
}

// deleteLocal deletes the row at local position: below len(p.vals) a merged
// live row gets a buffered delete, past it a still-buffered insert is
// annihilated (paired with a queued delete) — the only case that reads the
// insert buffer. The shared latch keeps a merge from moving the row
// meanwhile. It returns the row's value (0 for a row not yet enqueued).
func (p *Part) deleteLocal(local int) int64 {
	g := p.globalRow(local)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if local >= len(p.vals) {
		// A miss is a row id in flight between assignment and enqueue,
		// which the table's lock ordering keeps deletes from racing.
		v, _ := p.ingest.AnnihilateRow(g)
		return v
	}
	v := p.vals[local]
	if !p.deadLocked(local) {
		p.ingest.Delete(v, g) // dedups a delete already buffered for this row
	}
	return v
}

// PieceStats returns the part's cracker piece count and total indexed
// values; a part never cracked counts as one piece over its live rows.
func (p *Part) PieceStats() (pieces, n int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crack == nil {
		live := len(p.vals) - p.nDeleted
		if live == 0 {
			return 0, 0
		}
		return 1, live
	}
	return p.crack.Pieces(), p.crack.Len()
}

// RangePieceAvg returns the average size (in values) of the cracker pieces
// overlapping the value range [lo, hi): 0 when the part has no index yet or
// the range overlaps nothing, 1 once sorted. The benchmark rig (bench/)
// reads it by name; nothing in the kernel does.
func (p *Part) RangePieceAvg(lo, hi int64) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crack == nil {
		return 0
	}
	return p.crack.RangePieceAvg(lo, hi)
}

// Validate checks the part's index invariants (quiesced callers): the
// index's own (cracker.Index.Validate), and that it holds exactly the live
// merged rows — each attached row id by checkRowsLocked, a values-only copy
// as a multiset of the live values.
func (p *Part) Validate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crack == nil {
		return nil
	}
	if err := p.crack.Validate(); err != nil {
		return err
	}
	vals, rows := p.crack.Values(), p.crack.Rows()
	if rows != nil {
		return p.checkRowsLocked(vals, rows)
	}
	got, want := slices.Clone(vals), p.liveSnapshotLocked()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("shard: part %s: the copy's %d values are not the %d live rows' values", p.name, len(got), len(want))
	}
	return nil
}

// checkRowsLocked verifies a copy with row ids against the part's merged
// rows in one pass: it holds exactly the live rows, each row id is one of
// this part's rows (g % stride == id, local position in range), live, holds
// the value beside it, and appears once. Validate uses it. Callers hold
// either latch mode.
func (p *Part) checkRowsLocked(vals []int64, rows []uint32) error {
	if len(rows) != len(vals) || len(vals) != len(p.vals)-p.nDeleted {
		return fmt.Errorf("shard: part %s: copy of %d values and %d row ids, the part has %d live rows", p.name, len(vals), len(rows), len(p.vals)-p.nDeleted)
	}
	seen := make(bitmap, words(len(p.vals)))
	for i, g := range rows {
		local := int(g) / p.stride
		var bad string
		switch {
		case int(g)%p.stride != p.id:
			bad = "belongs to another part"
		case local >= len(p.vals):
			bad = "is past the part's rows"
		case p.deadLocked(local):
			bad = "is tombstoned"
		case p.vals[local] != vals[i]:
			bad = fmt.Sprintf("holds %d, not the copy's %d", p.vals[local], vals[i])
		case seen.has(local):
			bad = "appears twice"
		}
		if bad != "" {
			return fmt.Errorf("shard: part %s: copy entry %d names row %d, which %s", p.name, i, g, bad)
		}
		seen.set(local)
	}
	return nil
}
