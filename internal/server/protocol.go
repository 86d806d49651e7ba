package server

import (
	"errors"

	"holistic/internal/engine"
	"holistic/internal/loadgate"
	"holistic/internal/sqlmini"
)

// The wire protocol is newline-delimited JSON over TCP, documented in
// docs/protocol.md. Each request line is either a JSON Request object or —
// for human/netcat use — a bare sqlmini statement; each response is exactly
// one JSON Response line, written in request order per connection.

// Request is one client request: a sqlmini statement or a backslash command
// (`\ping`, `\stats`, `\pieces <table> <col>`), plus an optional client-
// chosen correlation id echoed back in the response.
type Request struct {
	ID   int64  `json:"id,omitempty"`
	Stmt string `json:"stmt"`
}

// Response is the server's answer to one Request. OK distinguishes the two
// shapes: on success Kind tells which result fields are meaningful (they
// mirror sqlmini.Result); on failure Error carries the message and Code,
// when set, a machine-readable class (currently only CodeReadOnly) so
// clients can react without parsing prose. ElapsedUS is the server-side
// execution time in microseconds, excluding queue wait.
type Response struct {
	ID        int64  `json:"id,omitempty"`
	OK        bool   `json:"ok"`
	Kind      string `json:"kind,omitempty"`
	Count     int    `json:"count,omitempty"`
	Sum       int64  `json:"sum,omitempty"`
	Row       uint32 `json:"row,omitempty"`
	Matched   bool   `json:"matched,omitempty"`
	ElapsedUS int64  `json:"elapsed_us,omitempty"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
	// Stats carries the payload of a \stats command.
	Stats *Stats `json:"stats,omitempty"`
	// Pieces/AvgPiece carry the payload of a \pieces command.
	Pieces   int     `json:"pieces,omitempty"`
	AvgPiece float64 `json:"avg_piece,omitempty"`
}

// CodeReadOnly is the Response.Code of writes refused because the
// durability layer degraded after persistent I/O failure; reads still
// serve. Clients should stop writing and alert an operator, not retry.
const CodeReadOnly = "read_only"

// Stats is the server-side observability payload of the \stats command:
// the load gate's traffic counters plus server totals. Degraded mirrors
// the engine's read-only state (see CodeReadOnly).
type Stats struct {
	Gate        loadgate.Stats `json:"gate"`
	Connections int64          `json:"connections"`
	Served      int64          `json:"served"`
	Overloaded  int64          `json:"overloaded"`
	IdleActions int64          `json:"idle_actions"`
	Strategy    string         `json:"strategy"`
	Degraded    bool           `json:"degraded,omitempty"`
	// Forecast is the predictive idle scheduling snapshot — per-column
	// predicted ranges with confidence, plus speculative budget use and win
	// counters. Present exactly when the strategy is holistic.
	Forecast *engine.ForecastStats `json:"forecast,omitempty"`
	// Log is the statement log's traffic — records, fsyncs and the bytes
	// appended but not yet durable. Present when a durable log is attached.
	Log *engine.LogStats `json:"log,omitempty"`
}

// parseRequest decodes one wire line, trimmed of white space and not empty.
// A line starting with '{' is a JSON Request; anything else is a bare
// statement with id 0. The result shares no memory with line.
func parseRequest(line []byte) (Request, error) {
	if line[0] == '{' {
		return decodeRequest(line)
	}
	return Request{Stmt: string(line)}, nil
}

// okResponse maps a structured sqlmini result onto the wire shape.
func okResponse(id int64, r *sqlmini.Result) Response {
	return Response{
		ID:        id,
		OK:        true,
		Kind:      r.Kind.String(),
		Count:     r.Count,
		Sum:       r.Sum,
		Row:       r.Row,
		Matched:   r.Matched,
		ElapsedUS: r.Elapsed.Microseconds(),
	}
}

// errResponse builds a failure response, classifying known error kinds
// into machine-readable codes.
func errResponse(id int64, err error) Response {
	resp := Response{ID: id, OK: false, Error: err.Error()}
	if errors.Is(err, engine.ErrReadOnly) {
		resp.Code = CodeReadOnly
	}
	return resp
}
