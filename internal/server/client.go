package server

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is a minimal holisticd protocol client used by holisticctl, the
// network benchmark harness and the tests. A Client owns one connection and
// is NOT safe for concurrent use — closed-loop load generators run one
// Client per goroutine, which is also the natural model for "one client,
// one session".
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	nextID int64
	// Reused buffers: the request being written; a response line longer than br's.
	out, long []byte
}

// Dial connects to a holisticd server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Send writes one request without waiting for its response, returning the
// assigned correlation id. Pipelined requests are answered in order; match
// them back up with Recv.
func (c *Client) Send(stmt string) (int64, error) {
	c.nextID++
	id := c.nextID
	var err error
	if c.out, err = appendRequest(c.out[:0], Request{ID: id, Stmt: stmt}); err != nil {
		return 0, err
	}
	c.out = append(c.out, '\n')
	_, err = c.conn.Write(c.out)
	return id, err
}

// Recv reads the next response line.
func (c *Client) Recv() (Response, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than br's buffer (an error text quoting a long
		// token): collect it.
		c.long = append(c.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if err != nil {
		return Response{}, err
	}
	resp, err := decodeResponse(line)
	if err != nil {
		return Response{}, fmt.Errorf("client: bad response %q: %w", line, err)
	}
	return resp, nil
}

// Exec sends one statement and waits for its response. A transport failure
// returns an error; a server-side statement failure returns the response
// with OK false and a nil error.
func (c *Client) Exec(stmt string) (Response, error) {
	id, err := c.Send(stmt)
	if err != nil {
		return Response{}, err
	}
	resp, err := c.Recv()
	if err != nil {
		return Response{}, err
	}
	if resp.ID != 0 && resp.ID != id {
		return resp, fmt.Errorf("client: response id %d for request %d (pipeline desync)", resp.ID, id)
	}
	return resp, nil
}

// Query executes a select and returns its count and sum, folding server-
// side failures into the error.
func (c *Client) Query(stmt string) (count int, sum int64, err error) {
	resp, err := c.Exec(stmt)
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("server: %s", resp.Error)
	}
	return resp.Count, resp.Sum, nil
}

// Stats fetches the server's \stats payload.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.Exec(`\stats`)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("server: %s", resp.Error)
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("server: stats response without payload")
	}
	return resp.Stats, nil
}
