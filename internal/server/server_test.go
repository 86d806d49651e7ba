package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/engine"
	"holistic/internal/workload"
)

// startServer builds an engine with n uniform rows in r.a, wraps it in a
// server listening on loopback, and returns the server, its address and the
// raw column values (for oracle computation). tweak, when non-nil, adjusts
// the server config before New.
func startServer(t *testing.T, engCfg engine.Config, n int, tweak func(*Config)) (*Server, string, []int64) {
	t.Helper()
	eng := engine.New(engCfg)
	t.Cleanup(eng.Close)
	vals := workload.UniformData(7, n, 1, int64(n)+1)
	tab, err := eng.CreateTable("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumnFromSlice("a", append([]int64(nil), vals...)); err != nil {
		t.Fatal(err)
	}
	srv, addr := serve(t, eng, tweak)
	return srv, addr, vals
}

// serve starts a server for eng on a loopback port and shuts it down when
// the test ends.
func serve(t *testing.T, eng *engine.Engine, tweak func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{Engine: eng}
	if tweak != nil {
		tweak(&cfg)
	}
	srv := New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, lis.Addr().String()
}

// oracle answers range count/sum queries from a sorted copy with prefix
// sums — the serial reference implementation.
type oracle struct {
	sorted []int64
	prefix []int64
}

func newOracle(vals []int64) *oracle {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := make([]int64, len(s)+1)
	for i, v := range s {
		p[i+1] = p[i] + v
	}
	return &oracle{sorted: s, prefix: p}
}

func (o *oracle) countSum(lo, hi int64) (int, int64) {
	i := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= hi })
	return j - i, o.prefix[j] - o.prefix[i]
}

func TestServerRoundTrip(t *testing.T) {
	_, addr, vals := startServer(t, engine.Config{Strategy: engine.StrategyAdaptive}, 10_000, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	orc := newOracle(vals)
	wantCount, wantSum := orc.countSum(100, 600)
	resp, err := c.Exec("select a from r where a >= 100 and a < 600")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Kind != "select" || resp.Count != wantCount || resp.Sum != wantSum {
		t.Fatalf("select response %+v, want count=%d sum=%d", resp, wantCount, wantSum)
	}

	resp, err = c.Exec("insert into r values (42)")
	if err != nil || !resp.OK || resp.Kind != "insert" {
		t.Fatalf("insert: %+v %v", resp, err)
	}
	resp, err = c.Exec("delete from r where a = 42")
	if err != nil || !resp.OK || resp.Kind != "delete" || !resp.Matched {
		t.Fatalf("delete: %+v %v", resp, err)
	}

	// Statement errors come back as ok=false responses, not broken conns.
	resp, err = c.Exec("select a from ghost where a >= 1 and a < 2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "no such table") {
		t.Fatalf("missing table response %+v", resp)
	}
	resp, err = c.Exec("not sql at all")
	if err != nil || resp.OK {
		t.Fatalf("garbage accepted: %+v %v", resp, err)
	}

	// Control plane.
	resp, err = c.Exec(`\ping`)
	if err != nil || !resp.OK || resp.Kind != "pong" {
		t.Fatalf("ping: %+v %v", resp, err)
	}
	resp, err = c.Exec(`\pieces r a`)
	if err != nil || !resp.OK || resp.Pieces < 1 {
		t.Fatalf("pieces: %+v %v", resp, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != "adaptive" || stats.Served == 0 || stats.Connections != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Gate.Arrivals != stats.Gate.Completed {
		t.Fatalf("gate unbalanced at rest: %+v", stats.Gate)
	}
	// The gate tallies the statements that mutated data: the insert and the
	// delete, not the selects and not the two rejected statements.
	if stats.Gate.Writes != 2 {
		t.Fatalf("gate counted %d writes, want 2: %+v", stats.Gate.Writes, stats.Gate)
	}
}

// TestServerBareTextProtocol drives the server with raw statement lines (no
// JSON envelope), the netcat-friendly mode.
func TestServerBareTextProtocol(t *testing.T) {
	_, addr, vals := startServer(t, engine.Config{Strategy: engine.StrategyScan}, 5_000, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := conn.Write([]byte("select a from r where a >= 10 and a < 500\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(vals)
	wantCount, wantSum := orc.countSum(10, 500)
	if !resp.OK || resp.Count != wantCount || resp.Sum != wantSum {
		t.Fatalf("bare text response %+v, want count=%d sum=%d", resp, wantCount, wantSum)
	}
	// Malformed JSON gets an error response, not a dropped connection.
	if _, err := conn.Write([]byte("{\"stmt\": \n")); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Recv()
	if err != nil || resp.OK || !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("malformed JSON: %+v %v", resp, err)
	}
}

// TestServerOversizedLine streams a request line longer than MaxLineBytes:
// the session must answer with one error response and close, not grow its
// buffer without bound.
func TestServerOversizedLine(t *testing.T) {
	_, addr, _ := startServer(t, engine.Config{Strategy: engine.StrategyScan}, 1_000, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := bytes.Repeat([]byte("x"), MaxLineBytes+4096) // no newline anywhere
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	resp, err := c.Recv()
	if err != nil || resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("oversized line: %+v %v", resp, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection survived an oversized line")
	}
}

// TestServerPipelining sends a window of requests before reading any
// responses and checks they come back complete and in order.
func TestServerPipelining(t *testing.T) {
	_, addr, vals := startServer(t, engine.Config{Strategy: engine.StrategyAdaptive}, 20_000, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	orc := newOracle(vals)

	const depth = 32
	type expect struct {
		id    int64
		count int
		sum   int64
	}
	var want []expect
	gen := workload.NewUniform("r", "a", 1, int64(20_000)+1, 0.01, 99)
	for i := 0; i < depth; i++ {
		q := gen.Next()
		id, err := c.Send(sqlFor(q))
		if err != nil {
			t.Fatal(err)
		}
		cnt, sum := orc.countSum(q.Lo, q.Hi)
		want = append(want, expect{id: id, count: cnt, sum: sum})
	}
	for i, w := range want {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !resp.OK || resp.ID != w.id || resp.Count != w.count || resp.Sum != w.sum {
			t.Fatalf("pipelined response %d: %+v, want id=%d count=%d sum=%d",
				i, resp, w.id, w.count, w.sum)
		}
	}
}

func sqlFor(q workload.Query) string {
	return fmt.Sprintf("select %s from %s where %s >= %d and %s < %d",
		q.Column, q.Table, q.Column, q.Lo, q.Column, q.Hi)
}

// TestServerDisconnectMidQuery closes the client connection while its
// statement is still executing: the server must finish the statement,
// release the gate, and keep serving other connections.
func TestServerDisconnectMidQuery(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, addr, _ := startServer(t, engine.Config{Strategy: engine.StrategyScan}, 5_000, nil)
	srv.execHook = func(req Request) {
		if strings.Contains(req.Stmt, "777") {
			once.Do(func() { close(entered) })
			<-release
		}
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send("select a from r where a >= 777 and a < 778"); err != nil {
		t.Fatal(err)
	}
	<-entered
	c.Close() // client walks away mid-query
	close(release)

	// The in-flight count must drain even though the response had nowhere
	// to go.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Gate().InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate still shows %d in flight after disconnect", srv.Gate().InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	// And the server still serves new sessions.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if resp, err := c2.Exec(`\ping`); err != nil || !resp.OK {
		t.Fatalf("server unhealthy after mid-query disconnect: %+v %v", resp, err)
	}
}

// TestServerShutdownDrains starts a statement, begins Shutdown while it is
// executing, and checks the client still receives its response before the
// connection closes.
func TestServerShutdownDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, addr, vals := startServer(t, engine.Config{Strategy: engine.StrategyScan}, 5_000, nil)
	srv.execHook = func(req Request) {
		if strings.Contains(req.Stmt, "555") {
			once.Do(func() { close(entered) })
			<-release
		}
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Send("select a from r where a >= 555 and a < 1555"); err != nil {
		t.Fatal(err)
	}
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener, then release the
	// statement: the session must flush the response before exiting.
	time.Sleep(10 * time.Millisecond)
	close(release)

	resp, err := c.Recv()
	if err != nil {
		t.Fatalf("in-flight response lost during shutdown: %v", err)
	}
	orc := newOracle(vals)
	wantCount, wantSum := orc.countSum(555, 1555)
	if !resp.OK || resp.Count != wantCount || resp.Sum != wantSum {
		t.Fatalf("drained response %+v, want count=%d sum=%d", resp, wantCount, wantSum)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The connection is closed after the drain...
	if _, err := c.Exec(`\ping`); err == nil {
		t.Fatal("connection survived shutdown")
	}
	// ...and new connections are refused.
	if c2, err := Dial(addr); err == nil {
		c2.Close()
		t.Fatal("server accepted a connection after shutdown")
	}
}

// TestServerOverload fills the single admission slot and checks the next
// statement is refused with an overload error instead of queueing.
func TestServerOverload(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, addr, _ := startServer(t, engine.Config{Strategy: engine.StrategyScan}, 5_000,
		func(cfg *Config) { cfg.MaxInFlight = 1 })
	srv.execHook = func(req Request) {
		if strings.Contains(req.Stmt, "333") {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	defer close(release)

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Send("select a from r where a >= 333 and a < 334"); err != nil {
		t.Fatal(err)
	}
	<-entered // the only slot is now held

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Exec("select a from r where a >= 1 and a < 2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "overloaded") {
		t.Fatalf("overload response %+v, want admission refusal", resp)
	}
	// The control plane stays reachable under overload.
	if resp, err := c2.Exec(`\stats`); err != nil || !resp.OK || resp.Stats.Overloaded == 0 {
		t.Fatalf("stats under overload: %+v %v", resp, err)
	}
}
