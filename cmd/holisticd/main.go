// Command holisticd serves the holistic kernel over TCP: the running-DBMS
// deployment the paper assumes, where idle time is an emergent property of
// client traffic. Clients speak the newline-delimited JSON protocol
// documented in docs/protocol.md (see also internal/server); any statement
// the sqlmini grammar accepts can be sent as a bare text line, so the
// server is netcat-friendly:
//
//	$ holisticd -addr :7701 -strategy holistic -load r.a:1000000 &
//	$ printf 'select a from r where a >= 1000 and a < 11000\n' | nc localhost 7701
//	{"ok":true,"kind":"select","count":10038,"sum":60222337,"elapsed_us":1843}
//
// The server's load gate (internal/loadgate) is the one gate the engine's
// idle worker pool answers to: while requests are in flight
// the pool yields entirely, and every traffic gap is spent on ranked index
// refinement, ramping up the longer the gap lasts. Watch it happen with
// `holisticctl stats` or a `\stats` line.
//
// With -strategy offline the daemon builds a full sorted index on every
// column once the catalog is populated (by -load or by recovery) and before
// it serves, logging each build's time: the offline strategy's a-priori idle
// time.
//
// With -data-dir the daemon is durable: every admitted write is appended
// to a statement log before it is acknowledged (fsync policy per -fsync),
// the idle pool checkpoints the engine — data AND physical design, crack
// trees included — into columnar snapshots, and a restart recovers from
// the newest snapshot plus the log suffix, answering its first query with
// the index refinement the previous process had already paid for. See
// docs/durability.md.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// statements finish and flush their responses, pending write buffers are
// merged, a final checkpoint is taken (durable mode), and the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"holistic/internal/engine"
	"holistic/internal/server"
	"holistic/internal/snapshot"
	"holistic/internal/wal"
	"holistic/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7701", "listen address (host:port)")
		strat   = flag.String("strategy", "holistic", "scan|offline|online|adaptive|holistic")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		target  = flag.Int("target", 1<<14, "holistic target piece size (values)")
		workers = flag.Int("idle-workers", 0, "idle worker pool size (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 1, "striped shards per column: large selects fan out across them (<=1 = unsharded)")
		maxIn   = flag.Int("max-inflight", server.DefaultMaxInFlight, "bounded admission: max statements in the system")
		load    = flag.String("load", "", "preload spec: comma-separated table.col:n uniform columns, e.g. r.a:1000000,r.b:1000000")
		dataDir = flag.String("data-dir", "", "durable mode: statement log + snapshots live here (empty = in-memory only)")
		fsyncMd = flag.String("fsync", "interval", "statement-log fsync policy: always|interval|off")
		connTO  = flag.Duration("conn-timeout", 0, "per-connection idle read deadline (0 = none)")
		verbose = flag.Bool("v", false, "log connection-level events")
	)
	flag.Parse()

	st, ok := strategyByName(*strat)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strat)
		os.Exit(2)
	}
	eng := engine.New(engine.Config{
		Strategy:        st,
		Seed:            *seed,
		TargetPieceSize: *target,
		AutoIdle:        st == engine.StrategyHolistic,
		IdleWorkers:     *workers,
		Shards:          *shards,
	})
	defer eng.Close()

	// Durable mode: recover the data directory into the (still empty)
	// engine — Open attaches the store, so every write from then on is
	// logged before it is acknowledged — and let checkpoints bid in the
	// idle auction.
	var store *snapshot.Store
	recovered := false
	if *dataDir != "" {
		sync, err := wal.ParseSyncPolicy(*fsyncMd)
		if err != nil {
			log.Fatalf("holisticd: -fsync: %v", err)
		}
		var info snapshot.RecoveryInfo
		store, info, err = snapshot.Open(nil, *dataDir, eng, snapshot.Config{
			Policy:   wal.Policy{Sync: sync},
			Shards:   eng.Shards(),
			Strategy: st.String(),
		})
		if err != nil {
			log.Fatalf("holisticd: -data-dir %s: %v", *dataDir, err)
		}
		eng.RegisterAux(&snapshot.CheckpointAction{Store: store, Logf: log.Printf})
		recovered = info.SnapshotLoaded || info.Replayed > 0
		switch {
		case info.SnapshotLoaded:
			log.Printf("holisticd: recovered %s: snapshot epoch %d + %d replayed statements (fsync=%s)",
				*dataDir, info.Epoch, info.Replayed, sync)
		case info.Replayed > 0:
			log.Printf("holisticd: recovered %s: no snapshot, %d replayed statements (fsync=%s)",
				*dataDir, info.Replayed, sync)
		default:
			log.Printf("holisticd: initialised empty data dir %s (fsync=%s)", *dataDir, sync)
		}
		if info.TornAt >= 0 {
			log.Printf("holisticd: statement log had a torn tail at offset %d (truncated; unacknowledged writes only)", info.TornAt)
		}
	}

	if *load != "" {
		// Recovery already populated the catalog: re-seeding would collide
		// with restored tables, so -load only applies to a cold data dir.
		if recovered {
			log.Printf("holisticd: -load skipped: data dir already holds the catalog")
		} else if err := preload(eng, *load, *seed); err != nil {
			log.Fatalf("holisticd: -load: %v", err)
		}
	}
	if err := buildAPriori(eng); err != nil {
		log.Fatalf("holisticd: a-priori index build: %v", err)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	srv := server.New(server.Config{
		Engine:      eng,
		MaxInFlight: *maxIn,
		ConnTimeout: *connTO,
		Logf:        logf,
	})

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	log.Printf("holisticd: serving strategy %s on %s (protocol: docs/protocol.md)", st, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("holisticd: serve: %v", err)
		}
	case s := <-sig:
		// Shutdown ordering matters (docs/protocol.md): drain in-flight
		// statements first (every acknowledged write is in the log), then
		// merge pending write buffers so the final snapshot sees them,
		// then checkpoint, then close the log.
		log.Printf("holisticd: %v — draining in-flight statements", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("holisticd: forced shutdown: %v", err)
		}
		if store != nil {
			if n := eng.MergePending(); n > 0 {
				log.Printf("holisticd: merged %d pending write buffers", n)
			}
			if _, err := store.Checkpoint(); err != nil {
				log.Printf("holisticd: final checkpoint failed (statement log remains authoritative): %v", err)
			} else {
				log.Printf("holisticd: checkpointed epoch %d", store.Epoch())
			}
			if err := store.Close(); err != nil {
				log.Printf("holisticd: closing statement log: %v", err)
			}
		}
	}
	log.Printf("holisticd: bye")
}

func strategyByName(s string) (engine.Strategy, bool) {
	for _, st := range engine.Strategies() {
		if st.String() == s {
			return st, true
		}
	}
	return 0, false
}

// buildAPriori spends the offline strategy's a-priori idle time (the paper's
// Table 1) before the first client arrives: every column that lacks a full
// sorted index gets one, whether -load or recovery populated the catalog.
// Other strategies build nothing.
func buildAPriori(eng *engine.Engine) error {
	if eng.Strategy() != engine.StrategyOffline {
		return nil
	}
	for _, d := range eng.DescribePhysicalDesign() {
		if d.FullIndex {
			continue
		}
		took, err := eng.BuildFullIndex(d.Table, d.Column)
		if err != nil {
			return err
		}
		log.Printf("holisticd: built full index on %s.%s in %v", d.Table, d.Column, took)
	}
	return nil
}

// preload creates uniform columns from a spec like "r.a:1000000,r.b:500000".
// Columns of one table must agree on the row count.
func preload(eng *engine.Engine, spec string, seed uint64) error {
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, countStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad spec %q, want table.col:n", part)
		}
		tabName, colName, ok := strings.Cut(name, ".")
		if !ok {
			return fmt.Errorf("bad column %q, want table.col", name)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad row count %q", countStr)
		}
		tab, err := eng.Table(tabName)
		if err != nil {
			if tab, err = eng.CreateTable(tabName); err != nil {
				return err
			}
		}
		vals := workload.UniformData(seed+uint64(i), n, 1, int64(n)+1)
		if err := tab.AddColumnFromSlice(colName, vals); err != nil {
			return err
		}
		log.Printf("holisticd: loaded %s.%s with %d uniform values in [1,%d]", tabName, colName, n, n)
	}
	return nil
}
