// Command holisticctl is the scripted client for holisticd: one-shot
// statements, server observability, and a closed-loop load generator for
// demonstrating traffic-gap idle harvesting from the outside.
//
//	holisticctl -addr localhost:7701 exec "select a from r where a >= 10 and a < 500"
//	holisticctl -addr localhost:7701 stats
//	holisticctl -addr localhost:7701 bench -clients 8 -requests 2000 -table r -col a -domain 1000000
//
// exec with no arguments reads statements from stdin, one per line, and
// prints one response line each — the pipe-friendly mode. bench reports
// client-side latency percentiles plus the server's idle-refinement
// counters before and after the run, so the effect of traffic on the idle
// pool is visible without touching the server process.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"holistic/internal/server"
	"holistic/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7701", "holisticd address (host:port)")
	retries := flag.Int("retries", 4, "retry transient dial/read failures this many times (exponential backoff + jitter)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	dial := dialer{addr: *addr, retries: *retries}
	var err error
	switch args[0] {
	case "exec":
		err = cmdExec(dial, args[1:])
	case "stats":
		err = cmdStats(dial)
	case "bench":
		err = cmdBench(dial, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "holisticctl: %v\n", err)
		os.Exit(1)
	}
}

// dialer connects with retries: transient failures (connection refused or
// reset, timeouts, unexpected EOF — a restarting or briefly overloaded
// server) are retried with exponential backoff plus jitter so a fleet of
// scripted clients does not reconnect in lockstep. Statement errors are
// never retried; only transport-level failures are.
type dialer struct {
	addr    string
	retries int
}

func (d dialer) dial() (*server.Client, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var c *server.Client
		if c, err = server.Dial(d.addr); err == nil {
			return c, nil
		}
		if attempt >= d.retries || !transient(err) {
			return nil, err
		}
		sleepBackoff(attempt)
	}
}

// retry runs op with a fresh connection, redialling and retrying when the
// transport fails mid-operation.
func (d dialer) retry(op func(c *server.Client) error) error {
	var err error
	for attempt := 0; ; attempt++ {
		var c *server.Client
		if c, err = d.dial(); err != nil {
			return err
		}
		err = op(c)
		c.Close()
		if err == nil || attempt >= d.retries || !transient(err) {
			return err
		}
		sleepBackoff(attempt)
	}
}

// transient reports whether err is worth retrying: the class of failures a
// server restart or drop produces, as opposed to a statement rejection.
func transient(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// sleepBackoff sleeps 50ms·2^attempt plus up to 50% jitter, capped at 2s.
func sleepBackoff(attempt int) {
	backoff := 50 * time.Millisecond << attempt
	if backoff > 2*time.Second {
		backoff = 2 * time.Second
	}
	time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2)+1)))
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: holisticctl [-addr host:port] <command>

commands:
  exec [stmt ...]   execute statements (or stdin lines) and print responses
  stats             print the server's \stats payload
  bench [flags]     closed-loop load generator; bench -h for flags
`)
	os.Exit(2)
}

// cmdExec retries the dial but never a statement: after a write has been
// sent, a transport failure is ambiguous (it may have been applied), so
// resending could double-apply it.
func cmdExec(dial dialer, stmts []string) error {
	c, err := dial.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	run := func(stmt string) error {
		resp, err := c.Exec(stmt)
		if err != nil {
			return err
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	if len(stmts) > 0 {
		for _, stmt := range stmts {
			if err := run(stmt); err != nil {
				return err
			}
		}
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			if err := run(line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

func cmdStats(dial dialer) error {
	// \stats is idempotent, so the whole operation retries, not just the
	// dial.
	return dial.retry(func(c *server.Client) error {
		stats, err := c.Stats()
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	})
}

func cmdBench(dial dialer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		clients  = fs.Int("clients", 8, "concurrent client connections")
		requests = fs.Int("requests", 1000, "total queries across all clients")
		table    = fs.String("table", "r", "table to query")
		col      = fs.String("col", "a", "column to query")
		domain   = fs.Int64("domain", 1_000_000, "column value domain [1, domain]")
		sel      = fs.Float64("sel", 0.01, "query selectivity")
		seed     = fs.Uint64("seed", 1, "RNG seed")
	)
	fs.Parse(args)
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("bench: -clients and -requests must be at least 1 (got %d and %d)", *clients, *requests)
	}

	// One probe connection fetches before/after idle counters.
	probe, err := dial.dial()
	if err != nil {
		return err
	}
	defer probe.Close()
	before, err := probe.Stats()
	if err != nil {
		return err
	}

	perClient := *requests / *clients
	if perClient < 1 {
		perClient = 1
	}
	lats := make([][]time.Duration, *clients)
	errsCh := make(chan error, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := dial.dial()
			if err != nil {
				errsCh <- err
				return
			}
			defer c.Close()
			gen := workload.NewUniform(*table, *col, 1, *domain+1, *sel, *seed+uint64(ci))
			lat := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				q := gen.Next()
				stmt := fmt.Sprintf("select %s from %s where %s >= %d and %s < %d",
					q.Column, q.Table, q.Column, q.Lo, q.Column, q.Hi)
				t0 := time.Now()
				if _, _, err := c.Query(stmt); err != nil {
					errsCh <- err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[ci] = lat
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errsCh)
	for err := range errsCh {
		return err
	}

	after, err := probe.Stats()
	if err != nil {
		return err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	p50, p95, p99, max := latencyProfile(all)
	fmt.Printf("bench: %d clients, %d queries in %v (%.0f q/s)\n",
		*clients, len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds())
	fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v\n", p50, p95, p99, max)
	fmt.Printf("server idle refinement: %d actions before, %d after (+%d); gate: %+v\n",
		before.IdleActions, after.IdleActions, after.IdleActions-before.IdleActions, after.Gate)
	return nil
}

// latencyProfile returns nearest-rank latency percentiles (p50, p95, p99)
// and the maximum. It sorts lats in place; a nil or empty slice returns
// zeros.
func latencyProfile(lats []time.Duration) (p50, p95, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(lats)
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return pct(0.50), pct(0.95), pct(0.99), lats[len(lats)-1]
}
