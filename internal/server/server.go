// Package server is rmaserve's engine: a RESP (Redis protocol) front
// end over rma.Sharded, the network layer of the serving stack.
//
// The design goal is that the hot path of a busy connection runs on the
// store's batched surfaces, not its point surfaces. Clients that
// pipeline see their commands coalesced per connection: consecutive
// point reads (GET, EXISTS, MGET) gather into one Sharded.GetBatch —
// one lock and one engine-level batch probe per touched shard — and
// consecutive upserts (SET, MSET) gather into one Sharded.ApplyBatch.
// Replies are emitted strictly in command order; a command of the other
// class (or a non-coalescible command such as SCAN) flushes the pending
// run first, so per-connection sequential consistency is preserved: a
// GET pipelined after a SET on the same connection always observes it.
//
// Command surface, batching semantics and per-command consistency
// guarantees are documented in SERVING.md at the repo root.
package server

import (
	"net"
	"sync"
	"sync/atomic"

	"rma"
	"rma/internal/resp"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxPipeline caps how many pipelined commands coalesce into one
	// batch before the run is force-flushed (default 256). Bounds both
	// reply latency under an endless pipeline and the batch scratch.
	MaxPipeline int
	// MaxScanCount caps a SCAN command's COUNT argument (default 4096);
	// the default COUNT when the client omits it is 128.
	MaxScanCount int
}

func (c *Config) fill() {
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 256
	}
	if c.MaxScanCount <= 0 {
		c.MaxScanCount = 4096
	}
}

// Stats counts server-level traffic (the store's own counters live in
// rma.Stats); STATS prints each field prefixed "server_".
type Stats struct {
	// Connections and ActiveConns count accepted and currently open
	// connections.
	Connections, ActiveConns uint64
	// Commands counts dispatched commands; Errors counts error replies
	// (protocol errors, bad arguments, unknown commands, engine errors).
	Commands, Errors uint64
	// ReadBatches/WriteBatches count coalesced flushes that hit
	// GetBatch/ApplyBatch; ReadBatched/WriteBatched count the commands
	// they carried (ratio = achieved coalescing factor).
	ReadBatches, ReadBatched   uint64
	WriteBatches, WriteBatched uint64
}

// Server serves the RESP protocol over one rma.Sharded store. Create
// with New, run with Serve or ListenAndServe, stop with Close. The
// server does not own the store: closing the server leaves the store
// open (callers checkpoint/close it themselves).
type Server struct {
	db  *rma.Sharded
	cfg Config

	connsMu sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup

	shutdownOnce sync.Once
	shutdownCh   chan struct{}

	connections  atomic.Uint64
	activeConns  atomic.Int64
	commands     atomic.Uint64
	errorReplies atomic.Uint64
	readBatches  atomic.Uint64
	readBatched  atomic.Uint64
	writeBatches atomic.Uint64
	writeBatched atomic.Uint64
}

// New builds a server over db.
func New(db *rma.Sharded, cfg Config) *Server {
	cfg.fill()
	return &Server{
		db:         db,
		cfg:        cfg,
		conns:      make(map[net.Conn]struct{}),
		shutdownCh: make(chan struct{}),
	}
}

// Stats returns the server-level counters.
func (s *Server) Stats() Stats {
	return Stats{
		Connections: s.connections.Load(),
		ActiveConns: uint64(max(s.activeConns.Load(), 0)),
		Commands:    s.commands.Load(),
		Errors:      s.errorReplies.Load(),
		ReadBatches: s.readBatches.Load(), ReadBatched: s.readBatched.Load(),
		WriteBatches: s.writeBatches.Load(), WriteBatched: s.writeBatched.Load(),
	}
}

// Shutdown returns a channel closed when a client issues SHUTDOWN; the
// process owner listens and tears the server down (Close cannot run on
// the handler's own goroutine).
func (s *Server) Shutdown() <-chan struct{} { return s.shutdownCh }

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close, running one handler
// goroutine per connection. It returns nil after Close; any other
// accept error is returned as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.connsMu.Lock()
	if s.closed {
		s.connsMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.connsMu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.connsMu.Lock()
			closed := s.closed
			s.connsMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connsMu.Lock()
		if s.closed {
			s.connsMu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connsMu.Unlock()
		s.connections.Add(1)
		s.activeConns.Add(1)
		s.wg.Add(1)
		go s.handle(c)
	}
}

// Close stops the server: the listener closes, every open connection is
// closed, and Close blocks until all handlers have returned. Idempotent.
// The store is left open and serving (in-process callers keep using it).
func (s *Server) Close() error {
	s.connsMu.Lock()
	if s.closed {
		s.connsMu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.connsMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// ServeConn runs the RESP session on an already-established connection
// (net.Pipe ends, in-process harnesses) and returns when it closes.
func (s *Server) ServeConn(c net.Conn) {
	s.connsMu.Lock()
	if s.closed {
		s.connsMu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
	s.connections.Add(1)
	s.activeConns.Add(1)
	s.wg.Add(1)
	s.handle(c)
}

// fillNotify wraps a connection so the session learns exactly when the
// parser is about to block on the network: bufio only calls the
// underlying Read once its buffer is exhausted, so onFill fires at
// every would-block point — including mid-command, when a pipelined
// burst ends in a torn command.
type fillNotify struct {
	c      net.Conn
	onFill func()
}

func (f *fillNotify) Read(p []byte) (int, error) {
	f.onFill()
	return f.c.Read(p)
}

// handle runs one connection's session loop.
func (s *Server) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.connsMu.Lock()
		delete(s.conns, c)
		s.connsMu.Unlock()
		s.activeConns.Add(-1)
		s.wg.Done()
	}()

	w := resp.NewWriter(c)
	var p pipeline
	// Invariant: p is empty and replies are flushed whenever the session
	// blocks on the network. The fill hook enforces it at the only place
	// blocking can happen — the parser refilling its buffer — so a
	// pipelined run coalesces for exactly as long as complete commands
	// keep arriving, and acknowledged work is never stranded behind a
	// torn command.
	r := resp.NewReader(&fillNotify{c: c, onFill: func() {
		s.flushPending(&p, w)
		w.Flush()
	}})
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			if resp.IsProtocol(err) {
				// Complete commands before the framing error still get
				// their replies — a pipelined client matches replies to
				// commands by position. Then answer once and close: the
				// stream cannot be trusted past the error.
				s.flushPending(&p, w)
				s.errorReplies.Add(1)
				w.Error("ERR protocol error: " + err.Error())
				w.Flush()
			}
			return
		}
		s.commands.Add(1)
		quit := s.dispatch(&p, w, cmd)
		if quit {
			s.flushPending(&p, w)
			w.Flush()
			return
		}
		// The fill hook flushes at block points; this bound only caps
		// how much batch scratch an endless buffered pipeline can pin.
		if p.count() >= s.cfg.MaxPipeline {
			s.flushPending(&p, w)
		}
	}
}
