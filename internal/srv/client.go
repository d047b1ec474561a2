package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ServerError is a typed error response from the server. Shed codes
// (over-capacity, quota) carry a retry-after hint.
type ServerError struct {
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("srv: server error %s", e.Code)
	}
	return fmt.Sprintf("srv: %s: %s", e.Code, e.Message)
}

// IsShed reports whether err is a typed shed response — the server
// deliberately refused the request under overload or quota, and the
// client should back off and retry.
func IsShed(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && (se.Code == CodeOverCapacity || se.Code == CodeQuota)
}

// ErrClientClosed is returned for requests on a closed client.
var ErrClientClosed = errors.New("srv: client closed")

// Client speaks the wire protocol over one connection. It is safe for
// concurrent use: requests are pipelined and responses are demuxed by
// request id, so N goroutines can share one connection. A request that
// races the server's graceful close fails with a typed shutting_down
// ServerError, never with a lost connection.
type Client struct {
	nc   net.Conn
	read chan struct{} // closed when the demux reader exits

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan clientResp
	err     error // terminal transport error, set once
}

type clientResp struct {
	typ  uint8
	body []byte
}

// NewClient wraps an established connection and starts its demux
// reader.
func NewClient(nc net.Conn) *Client {
	c := &Client{nc: nc, read: make(chan struct{}), pending: make(map[uint64]chan clientResp)}
	go c.readLoop()
	return c
}

// Dial connects to a TCP server address.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// Close tears the connection down; in-flight requests fail.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.nc.Close()
}

// fail marks the client dead and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// readLoop demuxes response frames to their waiting requests. A GOAWAY
// frame ends the connection: the server answered every request up to
// its last id before sending it, so whatever is still pending — and
// everything sent from now on — was refused by the closing server.
func (c *Client) readLoop() {
	defer close(c.read)
	for {
		h, body, err := readFrame(c.nc, DefaultMaxFrameBytes)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			c.fail(fmt.Errorf("srv: connection lost: %w", err))
			c.nc.Close()
			return
		}
		if h.Type == TGoAway {
			var g GoAway
			_ = json.Unmarshal(body, &g) // the id only labels the error; a bad body still means goodbye
			c.fail(&ServerError{Code: CodeShutdown, Message: fmt.Sprintf("server closed the connection after request %d", g.LastID)})
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[h.ID]
		if ok {
			delete(c.pending, h.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- clientResp{typ: h.Type, body: body}
			close(ch)
		}
		// Responses to abandoned (ctx-canceled) requests are dropped.
	}
}

// do issues one request and waits for its response or ctx.
func (c *Client) do(ctx context.Context, typ uint8, body any) (clientResp, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return clientResp{}, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan clientResp, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	h := header{Version: ProtoVersion, Type: typ, ID: id}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		if ms > int64(^uint32(0)) {
			ms = int64(^uint32(0))
		}
		h.DeadlineMillis = uint32(ms)
	}
	c.wmu.Lock()
	err := writeFrame(c.nc, h, body)
	c.wmu.Unlock()
	if err != nil {
		// The write fails when the server has closed the connection. A
		// GOAWAY it sent first may still be in the reader's hands; the
		// reader ends with the connection, so wait for it to decide the
		// error before reporting a lost send.
		select {
		case <-c.read:
		case <-ctx.Done():
		}
		c.fail(fmt.Errorf("srv: send request: %w", err))
		c.mu.Lock()
		delete(c.pending, id)
		err = c.err
		c.mu.Unlock()
		return clientResp{}, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return clientResp{}, err
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return clientResp{}, ctx.Err()
	}
}

// call runs one typed request/response exchange.
func call[T any](ctx context.Context, c *Client, typ uint8, req any) (*T, error) {
	resp, err := c.do(ctx, typ, req)
	if err != nil {
		return nil, err
	}
	switch resp.typ {
	case TResult:
		out := new(T)
		if err := json.Unmarshal(resp.body, out); err != nil {
			return nil, fmt.Errorf("srv: undecodable response: %w", err)
		}
		return out, nil
	case TError:
		var e ErrorResponse
		if err := json.Unmarshal(resp.body, &e); err != nil {
			return nil, fmt.Errorf("srv: undecodable error response: %w", err)
		}
		return nil, &ServerError{
			Code:       e.Code,
			Message:    e.Message,
			RetryAfter: time.Duration(e.RetryAfterMillis) * time.Millisecond,
		}
	}
	return nil, fmt.Errorf("srv: unexpected response type %d", resp.typ)
}

// Build compiles a program remotely.
func (c *Client) Build(ctx context.Context, req BuildRequest) (*BuildResponse, error) {
	return call[BuildResponse](ctx, c, TBuild, req)
}

// Run compiles (cached server-side) and executes a program once.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	return call[RunResponse](ctx, c, TRun, req)
}

// Compare evaluates a program under all three compiler modes.
func (c *Client) Compare(ctx context.Context, req CompareRequest) (*CompareResponse, error) {
	return call[CompareResponse](ctx, c, TCompare, req)
}

// Table regenerates one registered result table.
func (c *Client) Table(ctx context.Context, req TableRequest) (*TableResponse, error) {
	return call[TableResponse](ctx, c, TTable, req)
}
