// Package server implements holisticd's concurrent network frontend: the
// client/server boundary behind which the paper's idle-time protocol becomes
// observable end to end. Clients speak a newline-delimited JSON protocol
// (docs/protocol.md) over TCP; each connection is a session whose statements
// execute in order against a shared engine, while sessions run concurrently
// against each other.
//
// The server is the system's load authority. Its loadgate.Gate replaces the
// engine idle pool's own (Engine.SetLoadGate), so there is one gate: every
// admitted statement is bracketed by Begin/End on it from admission to
// response, and the engine's select or write holds the same gate inside
// that bracket without counting a second arrival. While any request is in
// flight — queued or executing — idle refinement fully yields, and the
// moment the last response is written a traffic gap begins and the pool
// ramps up. Idleness is thus an emergent property of traffic, exactly the
// deployment the paper assumes ("exploit any idle time as it appears"),
// rather than something a benchmark injects.
//
// Admission is bounded: at most Config.MaxInFlight statements are in the
// system at once, and statements beyond the bound are refused immediately
// with an overload error instead of queueing without limit. Shutdown is
// graceful — the listener closes, sessions finish the statement they are
// executing and flush its response, and Shutdown waits for the drain (up to
// its context deadline, after which connections are severed).
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/engine"
	"holistic/internal/loadgate"
	"holistic/internal/sqlmini"
)

// DefaultMaxInFlight bounds how many statements may be admitted (queued or
// executing) at once when Config.MaxInFlight is zero.
const DefaultMaxInFlight = 256

// MaxLineBytes caps one request line. Without it a peer streaming bytes
// with no newline would grow the session's read buffer without bound,
// bypassing the admission limit's memory protection; statements are tiny,
// so 1 MiB is generous.
const MaxLineBytes = 1 << 20

// ErrOverloaded is returned to clients when the admission queue is full.
var ErrOverloaded = errors.New("server overloaded: admission queue full")

// Config configures a Server.
type Config struct {
	// Engine is the shared kernel all sessions execute against. Required.
	Engine *engine.Engine
	// Gate is the load gate the engine's idle pool answers to. If nil the
	// server creates one; either way it replaces the pool's own gate via
	// SetLoadGate.
	Gate *loadgate.Gate
	// MaxInFlight bounds admitted statements; <= 0 selects
	// DefaultMaxInFlight.
	MaxInFlight int
	// ConnTimeout, when positive, is the per-connection idle read
	// deadline: a session that sends nothing for this long is closed, so
	// abandoned peers cannot pin connection state forever.
	ConnTimeout time.Duration
	// Logf, when non-nil, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

// Server serves the sqlmini wire protocol over TCP. Use New, then Serve or
// ListenAndServe; Shutdown stops it gracefully.
type Server struct {
	eng         *engine.Engine
	gate        *loadgate.Gate
	logf        func(string, ...any)
	admit       chan struct{}
	connTimeout time.Duration

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	// closed is written under mu (so Serve and Shutdown agree on who owns a
	// new connection) and read without it by sessions after every statement.
	closed atomic.Bool

	wg         sync.WaitGroup
	connsEver  atomic.Int64
	served     atomic.Int64
	overloaded atomic.Int64

	// execHook, when non-nil, runs inside statement execution after
	// admission and gate entry. Tests use it to hold requests in flight
	// deterministically. Set before Serve; never mutated after.
	execHook func(Request)
}

// New builds a Server and wires its load gate into the engine's idle pool.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	gate := cfg.Gate
	if gate == nil {
		gate = loadgate.New()
	}
	cfg.Engine.SetLoadGate(gate)
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		eng:         cfg.Engine,
		gate:        gate,
		logf:        logf,
		admit:       make(chan struct{}, maxInFlight),
		connTimeout: cfg.ConnTimeout,
		conns:       map[net.Conn]struct{}{},
	}
}

// Gate returns the server's load gate (for benchmarks and tests that need
// traffic-gap accounting).
func (s *Server) Gate() *loadgate.Gate { return s.gate }

// Serve accepts connections on lis until Shutdown. It returns nil after a
// graceful shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: already shut down")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsEver.Add(1)
		s.wg.Add(1)
		go s.session(conn)
	}
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Shutdown stops the server gracefully: the listener closes, idle sessions
// are woken and closed, and sessions executing a statement finish it and
// flush the response before exiting. Shutdown returns once every session
// has drained, or severs the remaining connections and returns ctx's error
// when the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	lis := s.lis
	// Nudge sessions blocked in a read: an expired read deadline unblocks
	// them with a timeout error and they exit; sessions mid-statement are
	// not reading and will notice the closed flag after responding.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// session runs one connection: read a line, execute, respond, repeat.
// Statements from one connection execute in order; different connections
// execute concurrently.
func (s *Server) session(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	var src io.Reader = conn
	if s.connTimeout > 0 {
		// Refresh the idle deadline before every read: a peer that goes
		// quiet for connTimeout is disconnected. Shutdown's past-deadline
		// nudge still wins — a blocked Read does not re-arm.
		src = deadlineReader{conn: conn, d: s.connTimeout}
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 4096), MaxLineBytes)
	// One response is one Write of this buffer, reused for the connection's
	// lifetime; request lines are parsed in place in the scanner's.
	var out []byte
	respond := func(resp Response) bool {
		var err error
		if out, err = appendResponse(out[:0], &resp); err != nil {
			fail := errResponse(resp.ID, fmt.Errorf("encode: %w", err))
			out, _ = appendResponse(out[:0], &fail)
		}
		out = append(out, '\n')
		if _, err := conn.Write(out); err != nil {
			s.logf("session %s: write: %v", conn.RemoteAddr(), err)
			return false
		}
		return true
	}
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			req, perr := parseRequest(line)
			var resp Response
			if perr != nil {
				resp = errResponse(0, fmt.Errorf("bad request: %w", perr))
			} else {
				resp = s.execute(req)
			}
			if !respond(resp) {
				return
			}
		}
		if s.closed.Load() {
			return
		}
	}
	switch err := sc.Err(); {
	case err == nil: // clean EOF
	case errors.Is(err, bufio.ErrTooLong):
		// Tell the peer why before hanging up; the line has no parseable
		// request id.
		respond(errResponse(0, fmt.Errorf("request line exceeds %d bytes", MaxLineBytes)))
	default:
		var ne net.Error
		switch {
		case s.closed.Load():
		case errors.As(err, &ne) && ne.Timeout():
			s.logf("session %s: idle for %v, closing", conn.RemoteAddr(), s.connTimeout)
		default:
			s.logf("session %s: read: %v", conn.RemoteAddr(), err)
		}
	}
}

// deadlineReader arms the connection's idle read deadline before each read.
type deadlineReader struct {
	conn net.Conn
	d    time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.d))
	return r.conn.Read(p)
}

// execute runs one request through admission, the load gate and the engine.
func (s *Server) execute(req Request) Response {
	stmt := strings.TrimSpace(req.Stmt)
	if stmt == "" {
		return errResponse(req.ID, errors.New("empty statement"))
	}
	if strings.HasPrefix(stmt, `\`) {
		// Control-plane commands bypass admission and the gate: they must
		// stay observable under overload and must not masquerade as client
		// traffic to the idle pool.
		return s.command(req.ID, stmt)
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.overloaded.Add(1)
		return errResponse(req.ID, ErrOverloaded)
	}
	defer func() { <-s.admit }()
	s.gate.Begin()
	defer s.gate.End()
	if h := s.execHook; h != nil {
		h(req)
	}
	res, err := sqlmini.Run(s.eng, stmt)
	if err != nil {
		return errResponse(req.ID, err)
	}
	if res.Kind != sqlmini.KindSelect {
		// Writes are traffic like any request (Begin/End already vetoes
		// refinement steps); the gate additionally tallies the mix.
		s.gate.NoteWrite()
	}
	s.served.Add(1)
	return okResponse(req.ID, res)
}

// command serves the backslash control plane: \ping, \stats and
// \pieces <table> <col>.
func (s *Server) command(id int64, stmt string) Response {
	fields := strings.Fields(stmt)
	switch fields[0] {
	case `\ping`:
		return Response{ID: id, OK: true, Kind: "pong"}
	case `\stats`:
		return Response{ID: id, OK: true, Kind: "stats", Stats: &Stats{
			Gate:        s.gate.Snapshot(),
			Connections: s.connsEver.Load(),
			Served:      s.served.Load(),
			Overloaded:  s.overloaded.Load(),
			IdleActions: s.eng.AutoIdleActions(),
			Strategy:    s.eng.Strategy().String(),
			Degraded:    s.eng.ReadOnly(),
			Forecast:    s.eng.ForecastStats(),
			Log:         s.eng.LogStats(),
		}}
	case `\pieces`:
		if len(fields) != 3 {
			return errResponse(id, errors.New(`usage: \pieces <table> <col>`))
		}
		pieces, avg, err := s.eng.PieceStats(fields[1], fields[2])
		if err != nil {
			return errResponse(id, err)
		}
		return Response{ID: id, OK: true, Kind: "pieces", Pieces: pieces, AvgPiece: avg}
	default:
		return errResponse(id, fmt.Errorf("unknown command %s", fields[0]))
	}
}
