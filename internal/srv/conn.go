package srv

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cash/internal/chaos"
	"cash/internal/obs"
)

// outMsg is one response waiting for the connection's writer.
type outMsg struct {
	h    header
	body any
}

// srvConn is one client connection: a reader that parses and admits
// request frames, a single writer that serializes response frames (the
// mux — workers finish in any order, responses carry the request id),
// a token bucket, and a latency histogram merged into the server-wide
// view on close.
type srvConn struct {
	s      *Server
	nc     net.Conn
	id     int
	out    chan outMsg
	closed chan struct{}
	read   chan struct{} // closed once the reader has exited
	once   sync.Once
	bucket *bucket
	hist   *obs.Histogram
	reqSeq int    // request index on this connection, keys chaos draws
	lastID uint64 // id of the last request frame read; final once the reader exits
}

// register admits an accepted connection before its goroutines start,
// so a drain that begins afterwards always finds it. A connection
// accepted while the server drains is closed gracefully from the start:
// it answers nothing but still ends with GOAWAY. register returns nil
// once the server has closed.
func (s *Server) register(nc net.Conn, connID int) *srvConn {
	c := &srvConn{
		s:      s,
		nc:     nc,
		id:     connID,
		out:    make(chan outMsg, 32),
		closed: make(chan struct{}),
		read:   make(chan struct{}),
		bucket: newBucket(s.cfg.QuotaRate, s.cfg.QuotaBurst),
		hist:   obs.NewCycleHistogram(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateClosed {
		nc.Close()
		return nil
	}
	if s.state == stateDraining {
		c.closeGraceful()
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	mConnsOpened.Inc()
	return c
}

// serveConn runs one registered connection to completion. Panics
// anywhere in the connection's goroutines are isolated: the connection
// dies, the server does not.
func (s *Server) serveConn(c *srvConn) {
	defer s.connWG.Done()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()
	c.readLoop()
	close(c.read)
	c.close(false)
	writerWG.Wait()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.mergeConnHistogram(c.hist)
	mConnsClosed.Inc()
}

// observe records one request's simulated cost in the connection's
// latency view.
func (c *srvConn) observe(cycles uint64) { c.hist.Observe(cycles) }

// close begins connection teardown. The writer flushes queued responses
// before closing the socket; force severs the socket immediately (hard
// drain, stuck peer).
func (c *srvConn) close(force bool) {
	c.once.Do(func() { close(c.closed) })
	if force {
		c.nc.Close()
	}
}

// closeGraceful stops the reader at the next frame boundary. Every frame
// it has read is answered; then serveConn closes the connection, whose
// writer flushes those answers and ends with a GOAWAY frame.
func (c *srvConn) closeGraceful() {
	// An error means the socket is already closed, which stops the
	// reader just the same.
	_ = c.nc.SetReadDeadline(time.Now())
}

// send queues a response for the writer. It blocks only while the
// writer is saturated, and gives up when the connection is closing —
// a response to a dead connection is not worth a wedged worker.
func (c *srvConn) send(reqID uint64, typ uint8, body any) {
	m := outMsg{h: header{Version: ProtoVersion, Type: typ, ID: reqID}, body: body}
	select {
	case c.out <- m:
	case <-c.closed:
	}
}

// writeLoop is the connection's only writer: it serializes response
// frames, each under a write deadline so a slow client is disconnected
// rather than allowed to pin the connection's memory forever. On
// shutdown it flushes what is already queued and, when the server is
// stopping, ends with a GOAWAY frame carrying the last request id the
// reader accepted; then it closes the socket.
func (c *srvConn) writeLoop() {
	defer func() {
		if r := recover(); r != nil {
			mReqPanics.Inc()
		}
		c.nc.Close() // unblocks the reader
	}()
	for {
		select {
		case m := <-c.out:
			if !c.writeOne(m) {
				c.close(false)
				return
			}
		case <-c.closed:
			for {
				select {
				case m := <-c.out:
					if !c.writeOne(m) {
						return
					}
				default:
					c.writeGoAway()
					return
				}
			}
		}
	}
}

// writeGoAway ends a graceful close: once the reader has stopped and the
// server is stopping, it tells the client the last request id that was
// read, so requests the client sent after it fail as shutting_down
// instead of as a lost connection. A hard close sends nothing.
func (c *srvConn) writeGoAway() {
	select {
	case <-c.read:
		if c.s.stopping() {
			c.writeOne(outMsg{h: header{Version: ProtoVersion, Type: TGoAway}, body: GoAway{LastID: c.lastID}})
		}
	default:
	}
}

// writeOne writes a single frame under the write deadline.
func (c *srvConn) writeOne(m outMsg) bool {
	c.nc.SetWriteDeadline(c.s.now().Add(c.s.writeTimeout()))
	return writeFrame(c.nc, m.h, m.body) == nil
}

// readLoop parses request frames and admits them: protocol version
// gate, wire chaos, per-client quota, then the bounded queue. Every
// rejection is a typed response; only a protocol-version mismatch or a
// wire fault ends the connection.
func (c *srvConn) readLoop() {
	defer func() {
		if r := recover(); r != nil {
			mReqPanics.Inc()
		}
	}()
	scope := fmt.Sprintf("srv/conn/%d", c.id)
	for {
		reqIdx := c.reqSeq
		c.reqSeq++
		in := c.s.cfg.Chaos.Draw(scope, reqIdx, 0, []chaos.Site{chaos.SiteConnDrop, chaos.SiteSlowRead})
		if in.Is(chaos.SiteSlowRead) {
			// A congested client: the request trickles in late.
			mChaosSlowRead.Inc()
			time.Sleep(time.Duration(1+in.Aux%5) * time.Millisecond)
		}
		h, body, err := readFrame(c.nc, c.s.maxFrame())
		if err != nil {
			return // EOF, peer gone, graceful close, or oversized/corrupt frame
		}
		c.lastID = h.ID
		if h.Version != ProtoVersion {
			c.send(h.ID, TError, ErrorResponse{
				Code:    CodeBadVersion,
				Message: fmt.Sprintf("protocol version %d not supported (want %d)", h.Version, ProtoVersion),
			})
			return
		}
		if in.Is(chaos.SiteConnDrop) {
			// The wire dies after the request was read, before any
			// response: the client sees a mid-request EOF.
			mChaosConnDrop.Inc()
			return
		}
		if ok, retry := c.bucket.take(c.s.now()); !ok {
			mReqQuota.Inc()
			c.send(h.ID, TError, ErrorResponse{Code: CodeQuota, Message: "per-client quota exhausted", RetryAfterMillis: ceilMillis(retry)})
			continue
		}
		if code, retry := c.s.tryEnqueue(&task{c: c, h: h, body: body}); code != "" {
			msg := "worker queue full"
			if code == CodeShutdown {
				msg = "server is draining"
			}
			c.send(h.ID, TError, ErrorResponse{Code: code, Message: msg, RetryAfterMillis: retry})
		}
	}
}
