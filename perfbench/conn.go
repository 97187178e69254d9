package main

import (
	"net"
	"sync/atomic"
)

// connLink ties the client end of one connection to its server end in a
// traced run, so server-side spans get the client's span as parent and
// the client can subtract the server's service time from its round
// trip.
type connLink struct {
	// cur is the client's open net.wait span (0 when not sampled).
	cur atomic.Int64
	// serviceNS is server service time not yet taken by the client.
	serviceNS atomic.Int64
}

// tracedListener wraps the listener handed to server.Serve. The i-th
// accepted connection is wrapped with links[i]; connections past the
// prepared ones are served unwrapped.
type tracedListener struct {
	net.Listener
	links []*connLink
	bufs  []*SpanBuf
	svc   []*Rec
	n     int // accepted so far; Accept runs on the Serve goroutine only

	reads, writes atomic.Uint64
	// on turns the wrappers from pass-through to timing and counting;
	// record gates service-time samples to the closed-loop phase, where
	// one service interval is one command.
	on, record atomic.Bool
}

func newTracedListener(ln net.Listener, tr *Tracer, conns int) *tracedListener {
	l := &tracedListener{Listener: ln}
	for range conns {
		l.links = append(l.links, &connLink{})
		l.bufs = append(l.bufs, tr.Buf())
		l.svc = append(l.svc, &Rec{})
	}
	return l
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.n >= len(l.links) {
		return c, err
	}
	i := l.n
	l.n++
	return &srvConn{Conn: c, l: l, link: l.links[i], buf: l.bufs[i], svc: l.svc[i]}, nil
}

// serviceRec merges every connection's service times; call after the
// server has closed.
func (l *tracedListener) serviceRec() *Rec {
	var r Rec
	for _, s := range l.svc {
		r.Merge(s)
	}
	return &r
}

// srvConn is the server's end of a traced connection. The server's
// handler goroutine is its only user. Service time runs from a Read
// returning data to the next Write: parsing, dispatch, the store call
// and reply encoding.
type srvConn struct {
	net.Conn
	l      *tracedListener
	link   *connLink
	buf    *SpanBuf
	svc    *Rec
	readAt int64 // 0 when no service interval is open
}

func (c *srvConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.l.on.Load() {
		return n, err
	}
	c.l.reads.Add(1)
	if n > 0 && c.readAt == 0 {
		c.readAt = now()
	}
	return n, err
}

func (c *srvConn) Write(p []byte) (int, error) {
	if !c.l.on.Load() {
		c.readAt = 0
		return c.Conn.Write(p)
	}
	if c.readAt != 0 {
		t := now()
		d := t - c.readAt
		if c.l.record.Load() {
			c.svc.Record(d)
		}
		c.link.serviceNS.Add(d)
		if parent := c.link.cur.Load(); parent != 0 {
			c.buf.Add(spanServerService, parent, c.readAt, t)
		}
		c.readAt = 0
	}
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// cliConn is the client's end: it remembers when reply bytes last
// arrived, which splits a blocking reply read into network wait and
// decode.
type cliConn struct {
	net.Conn
	lastRead int64
}

func (c *cliConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead = now()
	}
	return n, err
}
