package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// recorder collects what the closed-loop clients observe. Every client
// writes only its own slots, so the measured loop shares nothing.
type recorder struct {
	keep     bool // false: verify only (set-up statements)
	lat      [3][][]int64
	marks    [][]int   // per client: len(lat[kSelect]) at the start of each phase
	postGap  [][]int64 // first select of each client after each gap
	afterGap []bool
	failed   []int
	errs     [][]string
	busyNS   []int64
}

func newRecorder(p *plan, keep bool) *recorder {
	r := &recorder{keep: keep,
		marks:    make([][]int, p.clients),
		postGap:  make([][]int64, p.clients),
		afterGap: make([]bool, p.clients),
		failed:   make([]int, p.clients),
		errs:     make([][]string, p.clients),
		busyNS:   make([]int64, p.clients),
	}
	if keep {
		var n [3][]int
		for k := range n {
			n[k] = make([]int, p.clients)
		}
		for _, ph := range p.phases {
			for c, stream := range ph {
				for i := range stream {
					n[stream[i].kind][c]++
				}
			}
		}
		for k := range r.lat {
			r.lat[k] = make([][]int64, p.clients)
			for c := range r.lat[k] {
				r.lat[k][c] = make([]int64, 0, n[k][c])
			}
		}
	}
	return r
}

func (r *recorder) note(client int, s *stmt, ns int64, count int, sum int64, err error) {
	r.busyNS[client] += ns
	switch {
	case err != nil:
		r.fail(client, fmt.Sprintf("seq %d %q: %v", s.seq, s.text, err))
	case count != s.wantCount || (s.kind == kSelect && sum != s.wantSum):
		r.fail(client, fmt.Sprintf("seq %d %q: got %d/%d want %d/%d", s.seq, s.text, count, sum, s.wantCount, s.wantSum))
	}
	if !r.keep {
		return
	}
	r.lat[s.kind][client] = append(r.lat[s.kind][client], ns)
	if s.kind == kSelect && r.afterGap[client] {
		r.afterGap[client] = false
		r.postGap[client] = append(r.postGap[client], ns)
	}
}

func (r *recorder) fail(client int, msg string) {
	r.failed[client]++
	if len(r.errs[client]) < 3 {
		r.errs[client] = append(r.errs[client], msg)
	}
}

// phaseSelects returns the select latencies of phase pi, all clients.
func (r *recorder) phaseSelects(pi int) []int64 {
	var out []int64
	for c, l := range r.lat[kSelect] {
		end := len(l)
		if pi+1 < len(r.marks[c]) {
			end = r.marks[c][pi+1]
		}
		out = append(out, l[r.marks[c][pi]:end]...)
	}
	return out
}

func (r *recorder) pooled(k stmtKind) []int64 {
	var out []int64
	for _, l := range r.lat[k] {
		out = append(out, l...)
	}
	return out
}

// runPhase drives every client through its stream, closed loop: a client
// sends its next statement only when the previous one has answered. It
// returns the phase's wall time.
func (b *backend) runPhase(streams [][]stmt, rec *recorder) time.Duration {
	start := time.Now()
	if len(streams) == 1 {
		b.clientLoop(0, streams[0], rec)
		return time.Since(start)
	}
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.clientLoop(c, streams[c], rec)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (b *backend) clientLoop(client int, stream []stmt, rec *recorder) {
	traced := b.tr != nil
	for i := range stream {
		s := &stream[i]
		if traced {
			b.preTrace(s)
			b.cur = b.tr.open(b.cfg.rung.String(), -1, s.seq)
		}
		t0 := time.Now()
		count, sum, err := b.exec(client, s)
		ns := int64(time.Since(t0))
		if traced {
			b.tr.close(b.cur)
		}
		rec.note(client, s, ns, count, sum, err)
	}
}

// passOpts selects how one fresh-state replay of a plan runs.
type passOpts struct {
	rung        rung
	idleWorkers int
	autoIdle    bool // bursty gaps are real sleeps harvested by the idle pool; else manual windows
	tr          *tracer
	scratch     string // directory temp data dirs are made in
	setupOnly   bool   // stop once set-up is timed
	// after, when set, runs on the still-live backend once the measured
	// phases are over (kernel-rung probes of the warmed structures).
	after func(*backend)
}

// passResult is everything one replay measured.
type passResult struct {
	setupS    float64
	measuredS float64 // measured phases and their gaps, wall
	busyS     float64 // measured phases only
	phaseS    []float64
	rec       *recorder
	heapMB    float64

	idleS       float64 // manual idle windows, wall
	idleActions int
	idleWork    int64

	piecesStart, piecesEnd int
	avgPieceEnd            float64
	boosts, contended      int64
	stepGrants, gateGaps   int64
	overloaded             int64

	autoIdle                bool  // the background idle pool ran
	gapActions, busyActions int64 // its actions in gaps and during bursts
	pendingAtBurstEnd       []int
	mergeNS                 []int64
	checkpointMS            float64
	snapshotBytes, walBytes int64
	rowsAtCheckpoint        int
	rowsLogged              int
	openMS                  float64
	recoverS                []float64 // one per recovery of the closed directory
	replayed                int

	attempted, failed int
	errs              []string
}

// recoveries is how many times a durable repeat reopens its closed data
// directory.
const recoveries = 3

// heapInuse collects twice — the second cycle empties sync.Pool's victim
// cache, which would otherwise count pooled scratch buffers in one repeat
// and not in the next — and returns the live heap.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

func dirBytes(dir, suffix string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && filepath.Ext(e.Name()) == suffix {
			n += info.Size()
		}
	}
	return n
}

// runPass builds a fresh kernel at o.rung, sets it up, replays the plan's
// measured phases with their gaps, and (durable workloads) closes, reopens
// and checks what was acknowledged.
func runPass(p *plan, o passOpts, seed uint64) (*passResult, error) {
	sz := p.sz
	res := &passResult{rec: newRecorder(p, true), autoIdle: o.autoIdle}
	warm := newRecorder(p, false)
	cols := make([][]int64, len(p.cols))
	cfg := backendConfig{rung: o.rung, seed: subSeed(seed, seedEngine), idleWorkers: o.idleWorkers, autoIdle: o.autoIdle}
	durable := p.workload == wBursty && o.rung <= rungEngine
	if durable {
		dir, err := os.MkdirTemp(o.scratch, "data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	heap0 := heapInuse()
	for i, c := range p.cols {
		cols[i] = slices.Clone(c)
	}

	// Set-up: engine.New to ready-to-measure.
	t0 := time.Now()
	b, err := build(p, cfg, cols)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if p.warm != nil {
		b.runPhase(p.warm, warm)
	}
	if p.workload == wPoint {
		for {
			if a, _ := b.idle(1 << 10); a == 0 {
				break
			}
		}
	}
	res.setupS = time.Since(t0).Seconds()
	if o.setupOnly {
		return res, nil
	}

	var debt0 int64
	if b.store != nil {
		debt0 = b.store.ReplayDebt()
	}
	runtime.GC()
	res.piecesStart, _ = b.pieceStats()
	var autoIdle0 int64
	if b.eng != nil {
		autoIdle0 = b.eng.AutoIdleActions()
	}
	b.unpin()
	b.tr = o.tr // spans cover the measured statements only
	measured := time.Now()
	for pi, ph := range p.phases {
		for c := range res.rec.afterGap {
			res.rec.afterGap[c] = pi > 0
			res.rec.marks[c] = append(res.rec.marks[c], len(res.rec.lat[kSelect][c]))
		}
		wall := b.runPhase(ph, res.rec).Seconds()
		res.phaseS = append(res.phaseS, wall)
		res.busyS += wall
		switch p.workload {
		case wCold:
			t := time.Now()
			a, w := b.idle(sz.coldActions)
			res.idleS += time.Since(t).Seconds()
			res.idleActions += a
			res.idleWork += w
		case wBursty:
			res.pendingAtBurstEnd = append(res.pendingAtBurstEnd, b.pendingOps())
			check := &p.checks[pi]
			b.tr = nil
			count, sum, err := b.exec(0, check)
			b.tr = o.tr
			warm.note(0, check, 0, count, sum, err)
			if pi+1 == p.checkpointAfter && b.store != nil {
				debt := b.store.ReplayDebt()
				t := time.Now()
				if _, err := b.store.Checkpoint(); err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
				res.checkpointMS = float64(time.Since(t)) / 1e6
				res.walBytes = debt - debt0
				for _, ph := range p.phases[:pi+1] {
					for _, stream := range ph {
						for i := range stream {
							res.rowsLogged += len(stream[i].rows)
						}
					}
				}
				res.snapshotBytes = dirBytes(cfg.dir, ".snap")
				res.rowsAtCheckpoint = check.wantCount
			}
			if o.autoIdle {
				a0 := b.eng.AutoIdleActions()
				time.Sleep(time.Duration(sz.gapMillis) * time.Millisecond)
				res.gapActions += b.eng.AutoIdleActions() - a0
			} else {
				t := time.Now()
				b.mergePending()
				res.mergeNS = append(res.mergeNS, int64(time.Since(t)))
				t = time.Now()
				a, w := b.idle(sz.gapActions)
				res.idleS += time.Since(t).Seconds()
				res.idleActions += a
				res.idleWork += w
			}
		}
	}
	res.measuredS = time.Since(measured).Seconds()

	res.heapMB = (float64(heapInuse()) - float64(heap0)) / (1 << 20)
	res.piecesEnd, res.avgPieceEnd = b.pieceStats()
	if t := b.tunerOf(); t != nil {
		res.boosts, res.contended = t.Boosts(), t.Contended()
	}
	if b.eng != nil {
		res.busyActions = b.eng.AutoIdleActions() - autoIdle0 - res.gapActions
	}
	if b.srv != nil {
		st, err := b.clients[0].Stats()
		if err != nil {
			return nil, fmt.Errorf(`\stats: %w`, err)
		}
		res.stepGrants, res.gateGaps, res.overloaded = st.Gate.StepGrants, st.Gate.Gaps, st.Overloaded
	}

	if o.after != nil {
		o.after(b)
	}

	for c := 0; c < p.clients; c++ {
		res.failed += res.rec.failed[c] + warm.failed[c]
		res.errs = append(append(res.errs, res.rec.errs[c]...), warm.errs[c]...)
	}
	res.attempted = p.statements() + len(p.checks)
	for _, w := range p.warm {
		res.attempted += len(w)
	}

	if durable {
		if err := b.stopServing(); err != nil {
			return nil, fmt.Errorf("shutdown: %w", err)
		}
		b.eng.Close()
		b.eng, b.tab = nil, nil
		// Recover the same closed directory several times, each into a
		// fresh engine: Open only reads it, and one recovery is too short
		// and too dependent on the page cache to stand alone.
		last := len(p.phases) - 1
		var openNS []int64
		for k := 0; k < recoveries; k++ {
			// Collect what the previous engine held, or each recovery
			// pays for ever more fresh pages from the operating system.
			runtime.GC()
			eng, store, info, open, first, err := reopen(p, cfg, &p.inserted[last])
			res.attempted++
			if err != nil {
				res.failed++
				res.errs = append(res.errs, err.Error())
			}
			if eng == nil {
				continue
			}
			check, post := &p.checks[last], newRecorder(p, false)
			r, err := eng.Select(p.table, p.colNames[0], check.lo, check.hi)
			post.note(0, check, 0, r.Count, r.Sum, err)
			res.attempted++
			res.failed += post.failed[0]
			res.errs = append(res.errs, post.errs[0]...)
			store.Close()
			eng.Close()
			openNS = append(openNS, open)
			res.recoverS = append(res.recoverS, float64(first)/1e9)
			res.replayed = info.Replayed
		}
		res.openMS = float64(medianNS(openNS)) / 1e6
	}
	return res, nil
}
