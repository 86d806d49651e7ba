package server

import (
	"errors"
	"testing"
	"time"

	"holistic/internal/engine"
	"holistic/internal/snapshot"
	"holistic/internal/wal"
)

// degradedLog is a WriteLog that can be tripped into the sticky degraded
// state, failing writes the way internal/snapshot does: with the engine's
// read-only sentinel in the error chain.
type degradedLog struct{ broken bool }

func (d *degradedLog) err() error {
	if d.broken {
		return engine.ErrReadOnly
	}
	return nil
}
func (d *degradedLog) Degraded() bool                                      { return d.broken }
func (d *degradedLog) LogCreateTable(string) error                         { return d.err() }
func (d *degradedLog) LogAddColumn(string, string, []int64) (int64, error) { return 1, d.err() }
func (d *degradedLog) LogInsert(string, uint32, [][]int64) (int64, error)  { return 1, d.err() }
func (d *degradedLog) LogDelete(string, []uint32) (int64, error)           { return 1, d.err() }
func (d *degradedLog) WaitDurable(int64) error                             { return d.err() }

// TestServerReadOnlyCode: when the durability layer degrades, writes get a
// structured "read_only" error code, reads keep serving, and \stats
// reports the degraded flag.
func TestServerReadOnlyCode(t *testing.T) {
	wlog := &degradedLog{}
	srv, addr, _ := startServer(t, engine.Config{Strategy: engine.StrategyAdaptive, Seed: 1}, 1000, nil)
	srv.eng.SetWriteLog(wlog)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy: writes succeed.
	if resp, err := c.Exec("insert into r values (42)"); err != nil || !resp.OK {
		t.Fatalf("healthy insert failed: %+v %v", resp, err)
	}

	wlog.broken = true
	resp, err := c.Exec("insert into r values (43)")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeReadOnly {
		t.Fatalf("degraded insert = %+v, want code %q", resp, CodeReadOnly)
	}
	// Reads still serve.
	if resp, err := c.Exec("select a from r where a >= 1 and a < 100"); err != nil || !resp.OK {
		t.Fatalf("read on degraded server failed: %+v %v", resp, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Fatalf("stats.Degraded = false on a degraded server")
	}
}

// TestStatsReportLog: \stats carries the statement log's counters when a
// durable log is attached — records, fsyncs, and no lag once a write was
// acknowledged under fsync always — and omits them without one. The store
// opens on the empty engine, as recovery requires, before the table is
// loaded through it.
func TestStatsReportLog(t *testing.T) {
	eng := engine.New(engine.Config{Strategy: engine.StrategyAdaptive, Seed: 1})
	t.Cleanup(eng.Close)
	_, addr := serve(t, eng, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if stats, err := c.Stats(); err != nil || stats.Log != nil {
		t.Fatalf("stats without a log: %+v, %v; want no log counters", stats, err)
	}
	store, _, err := snapshot.Open(nil, t.TempDir(), eng, snapshot.Config{
		Policy: wal.Policy{Sync: wal.SyncAlways},
		Shards: eng.Shards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tab, err := eng.CreateTable("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	loaded := store.LogStats().Records
	for _, stmt := range []string{"insert into r values (101), (102)", "delete from r where a in (101)"} {
		if resp, err := c.Exec(stmt); err != nil || !resp.OK {
			t.Fatalf("%s: %+v %v", stmt, resp, err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if l := stats.Log; l == nil || l.Records-loaded != 2 || l.Fsyncs < 1 || l.DurableLagBytes != 0 {
		t.Fatalf("log counters %+v after %d load records, want 2 more records, at least one fsync, no lag", l, loaded)
	}
}

// TestServerConnTimeout: a silent connection is closed after the idle read
// deadline while an active one keeps serving.
func TestServerConnTimeout(t *testing.T) {
	_, addr, _ := startServer(t, engine.Config{Strategy: engine.StrategyScan, Seed: 1}, 100, func(cfg *Config) {
		cfg.ConnTimeout = 150 * time.Millisecond
	})
	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	active, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// The active session keeps talking and must survive.
		if resp, err := active.Exec(`\ping`); err != nil || !resp.OK {
			t.Fatalf("active session dropped: %+v %v", resp, err)
		}
		// The idle one should be disconnected: its next read reports EOF.
		idle.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		buf := make([]byte, 1)
		if _, err := idle.conn.Read(buf); err != nil {
			var ne interface{ Timeout() bool }
			if errors.As(err, &ne) && ne.Timeout() {
				continue // not yet dropped, keep waiting
			}
			return // EOF/reset: server closed the idle connection
		}
	}
	t.Fatalf("idle connection never timed out")
}
