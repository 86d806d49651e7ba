package main

import (
	"testing"

	"holistic/internal/engine"
	"holistic/internal/snapshot"
	"holistic/internal/wal"
)

const spec = "r.a:20000,r.b:20000"

// newLoaded returns an engine of the given strategy preloaded from spec, as
// -load does.
func newLoaded(t *testing.T, st engine.Strategy) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Config{Strategy: st, Shards: 2})
	t.Cleanup(eng.Close)
	if err := preload(eng, spec, 7); err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkIndexed requires a full index on every column of eng and, for each,
// select answers equal to a scan engine's over the same preload.
func checkIndexed(t *testing.T, eng *engine.Engine) {
	t.Helper()
	ds := eng.DescribePhysicalDesign()
	if len(ds) != 2 {
		t.Fatalf("design lists %d columns, want 2: %+v", len(ds), ds)
	}
	scan := newLoaded(t, engine.StrategyScan)
	for _, d := range ds {
		if !d.FullIndex {
			t.Fatalf("%s.%s has no full index after the a-priori build", d.Table, d.Column)
		}
		for _, q := range [][2]int64{{1, 20001}, {500, 7300}, {12345, 12346}, {30000, 40000}} {
			got, err := eng.Select(d.Table, d.Column, q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := scan.Select(d.Table, d.Column, q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count || got.Sum != want.Sum {
				t.Fatalf("%s.%s [%d, %d): index %d/%d, scan %d/%d",
					d.Table, d.Column, q[0], q[1], got.Count, got.Sum, want.Count, want.Sum)
			}
		}
	}
}

// An offline daemon indexes every preloaded column before it serves.
func TestBuildAPrioriAfterLoad(t *testing.T) {
	eng := newLoaded(t, engine.StrategyOffline)
	if err := buildAPriori(eng); err != nil {
		t.Fatal(err)
	}
	checkIndexed(t, eng)
}

// restartOffline preloads spec into an offline engine logging to a fresh
// directory, runs before on it, closes it, and recovers a second offline
// engine from the directory.
func restartOffline(t *testing.T, before func(*engine.Engine, *snapshot.Store)) (*engine.Engine, snapshot.RecoveryInfo) {
	t.Helper()
	dir := t.TempDir()
	open := func(eng *engine.Engine) (*snapshot.Store, snapshot.RecoveryInfo) {
		t.Helper()
		store, info, err := snapshot.Open(nil, dir, eng, snapshot.Config{
			Policy:   wal.Policy{Sync: wal.SyncOff},
			Shards:   eng.Shards(),
			Strategy: eng.Strategy().String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetWriteLog(store)
		return store, info
	}

	first := engine.New(engine.Config{Strategy: engine.StrategyOffline, Shards: 2})
	store, _ := open(first)
	if err := preload(first, spec, 7); err != nil {
		t.Fatal(err)
	}
	before(first, store)
	first.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Config{Strategy: engine.StrategyOffline, Shards: 2})
	t.Cleanup(eng.Close)
	store, info := open(eng)
	t.Cleanup(func() { store.Close() })
	return eng, info
}

// A recovery that replays only the statement log (no snapshot, so no
// persisted index) also gets its index.
func TestBuildAPrioriAfterLogOnlyRecovery(t *testing.T) {
	eng, info := restartOffline(t, func(*engine.Engine, *snapshot.Store) {})
	if info.SnapshotLoaded || info.Replayed == 0 {
		t.Fatalf("want a log-only recovery, got %+v", info)
	}
	if err := buildAPriori(eng); err != nil {
		t.Fatal(err)
	}
	checkIndexed(t, eng)
}

// A warm restart from a checkpoint keeps the full index: nothing to build.
func TestFullIndexSurvivesWarmRestart(t *testing.T) {
	eng, info := restartOffline(t, func(first *engine.Engine, store *snapshot.Store) {
		if err := buildAPriori(first); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if !info.SnapshotLoaded {
		t.Fatalf("want a warm restart, got %+v", info)
	}
	checkIndexed(t, eng)
}

// Only the offline strategy spends a-priori idle time on full indexes.
func TestBuildAPrioriOnlyOffline(t *testing.T) {
	eng := newLoaded(t, engine.StrategyHolistic)
	if err := buildAPriori(eng); err != nil {
		t.Fatal(err)
	}
	for _, d := range eng.DescribePhysicalDesign() {
		if d.FullIndex || d.Cracked {
			t.Fatalf("holistic engine gained a physical design at boot: %+v", d)
		}
	}
}
