package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"rma"
	"rma/internal/resp"
	"rma/internal/server"
	"rma/internal/workload"
)

// resp-serve: an in-process internal/server over loopback TCP with
// rmaserve's serving options. 2^20 keys are preloaded; two connections
// send 90% GET / 10% SET over scrambled zipf(1.0) keys. A pass
// alternates three phases in rounds of about serveRoundSeconds, so each
// phase's figures sample the whole run's host conditions rather than
// one slice of it; each phase's windows are laid end to end on a
// timeline of its own.
//   - Phase 1 is closed-loop at depth 1 and gives ops_per_s and the
//     read and write latencies.
//   - Phase 2 is open-loop at a fixed offered rate (-open-rate), timed
//     from each request's intended send; bursts pipeline and reach the
//     coalescer. Its latencies are printed, not reported as metrics: on
//     the 2-vCPU virtual machine the bounds were set on they followed
//     the host more than the server (five seeds read p99 from 0.27 to
//     6 ms, and a thread spinning on the clock lost the CPU for over
//     4 ms at its p99 with nothing else running).
//   - Phase 3 reads 20-key SCANs from uniform start keys and gives
//     scan_keys_per_s. (100-key replies spread 25% over ten seeds, and
//     zipf starts tied the rate to the seed.)
//
// A request costs tens of microseconds and the engine's share is under
// one, so sockets, resp and server dominate this workload.
const (
	serveKeys     = 1 << 20
	serveConns    = 2
	serveReadPct  = 90
	serveScanKeys = 20
	// servePreloadPairs is the MSET size of the preload.
	servePreloadPairs = 512
	// serveSampleEvery: one closed-loop request in this many is traced
	// as a span tree; every request is still timed.
	serveSampleEvery = 32
)

// serveShares splits a pass between the three phases.
var serveShares = []float64{0.5, 0.35, 0.15}

// serveRoundSeconds is the length of one round of the three phases. At
// 2 s, each phase's share of a round is a whole number of windows.
const serveRoundSeconds = 2

type serveRun struct {
	cfg   config
	db    *rma.Sharded
	srv   *server.Server
	done  chan error // Serve's return
	ln    *tracedListener
	model *kvModel
}

// client is one load connection with its own key and op streams.
type client struct {
	id    int
	c     *cliConn
	w     *resp.Writer
	rd    *resp.Reader
	zipf  *workload.Zipf
	rng   *workload.RNG
	olRNG *workload.RNG // open-loop arrivals
}

func runServe(cfg config, res *result) error {
	var s *serveRun
	var setups []float64
	var tr *Tracer
	if cfg.trace {
		tr = &Tracer{}
	}
	for range setupRounds {
		if s != nil {
			s.close()
			debug.FreeOSMemory()
		}
		t0 := now()
		var err error
		if s, err = startServe(cfg, tr); err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	defer s.close()

	clients := make([]*client, serveConns)
	for i := range clients {
		nc, err := net.Dial("tcp", s.ln.Addr().String())
		if err != nil {
			return err
		}
		defer nc.Close()
		cc := &cliConn{Conn: nc}
		clients[i] = &client{id: i, c: cc, w: resp.NewWriter(cc), rd: resp.NewReader(cc),
			zipf:  workload.NewZipf(cfg.seed*31+uint64(i), 1.0, serveKeys, true),
			rng:   workload.NewRNG(cfg.seed*131 + uint64(i)),
			olRNG: workload.NewRNG(cfg.seed*7919 + uint64(i))}
	}

	if cfg.trace {
		initLayerMetrics(res)
		untraced, err := s.pass(clients, cfg.seconds/2, nil)
		if err != nil {
			return err
		}
		s0, v0, r0 := snapStore(s.db), s.srv.Stats(), snapRuntime()
		reads0, writes0 := s.ln.reads.Load(), s.ln.writes.Load()
		smp := startSampler(s.db)
		p, err := s.pass(clients, cfg.seconds/2, tr)
		if err != nil {
			return err
		}
		smp.finish(res)
		setStoreLayers(res, s0, snapStore(s.db))
		setServerLayers(res, v0, s.srv.Stats(), s.ln.reads.Load()-reads0, s.ln.writes.Load()-writes0)
		setRuntimeLayers(res, r0, snapRuntime(), p.ops)
		res.set("resp.encode_ns_per_cmd", p.encode.Mean(), "ns")
		res.set("resp.decode_ns_per_reply", p.decode.Mean(), "ns")
		res.set("net.wait_us_p50", p.netWait.Quantile(0.5)/1e3, "us")
		res.set("client.sched_lag_us_p99", p.ol.lag.Quantile(0.99)/1e3, "us")
		res.set("trace.overhead_ratio", 1-p.closedOpsPerSec()/untraced.closedOpsPerSec(), "ratio")
		for _, c := range clients {
			c.c.Close()
		}
		s.closeServer()
		svc := s.ln.serviceRec()
		res.set("server.service_us_p50", svc.Quantile(0.5)/1e3, "us")
		res.set("server.service_us_p99", svc.Quantile(0.99)/1e3, "us")
		spans, dropped := tr.Spans()
		setSelfTimes(res, spans, dropped)
		untraced.account(res)
		p.account(res)
	} else {
		p, err := s.pass(clients, cfg.seconds, nil)
		if err != nil {
			return err
		}
		res.set("ops_per_s", p.closedOpsPerSec(), "1/s")
		setLatency(res, "read", p.read, p.closedEnd)
		setLatency(res, "write", p.write, p.closedEnd)
		// Keys per second of SCAN round trip on one connection, times
		// the connections scanning side by side.
		res.set("scan_keys_per_s", windowRatio(p.scanKeys, p.scanNS, p.scanEnd)*1e9*serveConns, "1/s")
		res.set("bytes_per_key", float64(s.db.FootprintBytes())/float64(s.db.Size()), "B")
		res.set("setup_s", median(setups), "s")
		for _, l := range []struct {
			name string
			r    *winRec
		}{{"GET", p.ol.read}, {"SET", p.ol.write}} {
			res.note("open loop %s latency from intended send: window p50=%.1fus p99=%.1fus; whole run p50=%.1fus p99=%.1fus p999=%.1fus n=%d",
				l.name, l.r.Quantile(0.5, p.olEnd)/1e3, l.r.Quantile(0.99, p.olEnd)/1e3,
				l.r.all.Quantile(0.5)/1e3, l.r.all.Quantile(0.99)/1e3, l.r.all.Quantile(0.999)/1e3, l.r.all.Count())
		}
		res.note("open loop: offered %.0f ops/s, answered %d, sched lag p99 %.1fus",
			cfg.openRate, p.ol.ops, p.ol.lag.Quantile(0.99)/1e3)
		res.note("SCAN: %d of %d replies torn", p.torn, p.scans)
		p.account(res)
	}

	// Every key must hold its last acknowledged value.
	if err := s.db.Flush(); err != nil {
		return err
	}
	res.attempted++
	next := int64(0)
	bad := int64(0)
	s.db.Scan(func(k, v int64) bool {
		if k != next || v != valueAt(k, s.model.acked[k].Load()) {
			bad++
		}
		next++
		return true
	})
	if bad > 0 || next != serveKeys {
		res.fail(1, "resp-serve: final store differs from the acknowledged writes at %d keys (%d keys)", bad, next)
	}
	if !cfg.trace {
		k, v := dump(s.db)
		s.close() // a restart starts without the old store
		secs, bad, err := restoreFromDump(k, v)
		if err != nil {
			return err
		}
		res.attempted++
		if bad > 0 {
			res.fail(1, "resp-serve: restored store differs from its dump in %d pairs", bad)
		}
		res.set("recover_s", secs, "s")
	}
	return nil
}

// startServe builds the store and the server and preloads the keys
// through one connection: the set-up a restarted rmaserve and its
// loader go through.
func startServe(cfg config, tr *Tracer) (*serveRun, error) {
	db, err := rma.NewSharded(numShards, servingOptions()...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	// Connection 0 is the preload; 1 and 2 carry the load.
	tl := newTracedListener(ln, tr, 1+serveConns)
	var sl net.Listener = ln
	if tr != nil {
		sl = tl
	}
	s := &serveRun{cfg: cfg, db: db, srv: server.New(db, server.Config{}), done: make(chan error, 1),
		ln: tl, model: newKVModel(serveKeys)}
	go func() { s.done <- s.srv.Serve(sl) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		s.close()
		return nil, err
	}
	defer nc.Close()
	w, rd := resp.NewWriter(nc), resp.NewReader(nc)
	args := make([]int64, 0, 2*servePreloadPairs)
	for k := int64(0); k < serveKeys; k += servePreloadPairs {
		args = args[:0]
		for j := k; j < k+servePreloadPairs; j++ {
			args = append(args, j, workload.ValueFor(j))
		}
		w.Command("MSET", args...)
		if err := w.Flush(); err != nil {
			s.close()
			return nil, err
		}
		rep, err := rd.ReadReply()
		if err != nil || rep.Kind != resp.SimpleString {
			s.close()
			return nil, fmt.Errorf("resp-serve: preload MSET: %v %q", err, rep.Bulk)
		}
	}
	if err := db.Flush(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveRun) closeServer() {
	if s.srv != nil {
		s.srv.Close()
		<-s.done
		s.srv = nil
	}
}

func (s *serveRun) close() {
	s.closeServer()
	if s.db != nil {
		s.db.Close()
		s.db = nil
	}
}

// servePass is one pass through the three phases.
type servePass struct {
	closed      *winCount // phase 1 completions
	closedEnd   int64
	read, write *winRec // phase 1 latencies
	ol          olResult
	olEnd       int64
	scanKeys    *winCount // keys returned, by window
	scanNS      *winCount // time in SCAN round trips, by window
	scanEnd     int64
	scans, torn int64
	ops         int64
	failLog
	// Traced closed-loop split of each request.
	encode, decode, netWait Rec
}

// newServePass returns empty recorders on timelines that start at 0.
func newServePass() *servePass {
	return &servePass{closed: newWinCount(0), read: newWinRec(0), write: newWinRec(0),
		ol: olResult{read: newWinRec(0), write: newWinRec(0)}, scanKeys: newWinCount(0), scanNS: newWinCount(0)}
}

func (p *servePass) closedOpsPerSec() float64 { return p.closed.Rate(p.closedEnd) }

func (p *servePass) account(res *result) {
	res.attempted += p.ops
	res.merge(&p.failLog)
}

// clientPass is one connection's share of a pass. Its recorders run on
// each phase's own timeline: shift is subtracted from a sample's time.
type clientPass struct {
	servePass
	shift int64
	err   error
}

func (s *serveRun) pass(clients []*client, secs float64, tr *Tracer) (*servePass, error) {
	rounds := max(1, int(math.Round(secs/serveRoundSeconds)))
	// d[k] is phase k's share of one round, in whole windows.
	var d []time.Duration
	for _, share := range serveShares {
		w := max(1, int64(seconds(secs*share/float64(rounds)))/winNS)
		d = append(d, time.Duration(w*winNS))
	}
	parts := make([]*clientPass, len(clients))
	bufs := make([]*SpanBuf, len(clients))
	for i := range parts {
		parts[i] = &clientPass{servePass: *newServePass()}
		bufs[i] = tr.Buf()
	}
	// each runs one phase on every connection at once, from a common
	// start so the connections' windows line up; in round r the phase's
	// timeline resumes at r*d.
	each := func(r int, d time.Duration, f func(c *client, p *clientPass, buf *SpanBuf, start, end int64)) {
		start := now()
		end := start + d.Nanoseconds()
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i].shift = start - int64(r)*d.Nanoseconds()
				f(c, parts[i], bufs[i], start, end)
			}()
		}
		wg.Wait()
	}
	out := newServePass()
	out.closedEnd = int64(rounds) * d[0].Nanoseconds()
	out.olEnd = int64(rounds) * d[1].Nanoseconds()
	out.scanEnd = int64(rounds) * d[2].Nanoseconds()

	s.ln.on.Store(tr != nil)
	for r := range rounds {
		s.ln.record.Store(tr != nil)
		each(r, d[0], func(c *client, p *clientPass, buf *SpanBuf, start, end int64) {
			s.closedLoop(c, end, p, buf)
		})
		s.ln.record.Store(false)
		each(r, d[1], func(c *client, p *clientPass, _ *SpanBuf, start, end int64) {
			s.openLoop(c, start, end, p)
		})
		each(r, d[2], func(c *client, p *clientPass, buf *SpanBuf, start, end int64) {
			s.scanLoop(c, end, p, buf)
		})
	}
	s.ln.on.Store(false)

	var errs []error
	for _, p := range parts {
		errs = append(errs, p.err)
		out.closed.Merge(p.closed)
		out.read.Merge(p.read)
		out.write.Merge(p.write)
		out.ol.read.Merge(p.ol.read)
		out.ol.write.Merge(p.ol.write)
		out.ol.lag.Merge(&p.ol.lag)
		out.ol.ops += p.ol.ops
		out.scanKeys.Merge(p.scanKeys)
		out.scanNS.Merge(p.scanNS)
		out.scans += p.scans
		out.torn += p.torn
		out.ops += p.ops
		out.merge(&p.failLog)
		out.encode.Merge(&p.encode)
		out.decode.Merge(&p.decode)
		out.netWait.Merge(&p.netWait)
	}
	return out, errors.Join(errs...)
}

// pick draws the next operation: a GET of any key or a SET of a key of
// this client's stripe (so each key has one writer).
func (s *serveRun) pick(c *client) (key int64, write bool) {
	key = c.zipf.Next()
	if c.rng.Uint64n(100) >= serveReadPct {
		return key&^(serveConns-1) | int64(c.id), true
	}
	return key, false
}

// issue encodes one GET or SET and returns the version bound its reply
// is checked against.
func (s *serveRun) issue(w *resp.Writer, key int64, write bool) uint32 {
	if write {
		ver := s.model.issued[key].Add(1)
		w.Command("SET", key, valueAt(key, ver))
		return ver
	}
	w.Command("GET", key)
	return s.model.acked[key].Load()
}

// settle reads the reply of one GET or SET and checks it.
func (s *serveRun) settle(rd *resp.Reader, key int64, ver uint32, write bool) (ok bool, err error) {
	rep, err := rd.ReadReply()
	if err != nil {
		return false, err
	}
	if write {
		if rep.Kind != resp.SimpleString {
			return false, nil
		}
		s.model.acked[key].Store(ver)
		return true, nil
	}
	if rep.Kind != resp.BulkString {
		return false, nil
	}
	v, ok := resp.ParseInt(rep.Bulk)
	return ok && s.model.check(key, ver, v, true), nil
}

func (s *serveRun) closedLoop(c *client, end int64, p *clientPass, buf *SpanBuf) {
	var link *connLink // the server end of this connection, traced runs only
	if buf != nil {
		link = s.ln.links[1+c.id]
	}
	for i := 0; now() < end; i++ {
		key, write := s.pick(c)
		var root, wait int64
		t0 := now()
		sampled := buf != nil && i%serveSampleEvery == 0
		if sampled {
			root = buf.Begin(spanClientRequest, 0, t0)
		}
		ver := s.issue(c.w, key, write)
		t1 := now()
		if sampled {
			buf.Add(spanRespEncode, root, t0, t1)
			wait = buf.Begin(spanNetWait, root, t1)
			link.cur.Store(wait)
		}
		if err := c.w.Flush(); err != nil {
			p.err = err
			return
		}
		t2 := now()
		ok, err := s.settle(c.rd, key, ver, write)
		t3 := now()
		if err != nil {
			p.err = err
			return
		}
		p.ops++
		p.closed.Add(t3-p.shift, 1)
		if write {
			p.write.Record(t3-p.shift, t3-t0)
		} else {
			p.read.Record(t3-p.shift, t3-t0)
		}
		if !ok {
			p.fail(1, "resp-serve: wrong reply to a closed-loop request for key %d (write %v)", key, write)
		}
		if buf != nil {
			tr := max(c.c.lastRead, t2)
			svc := link.serviceNS.Swap(0)
			p.encode.Record(t1 - t0)
			p.decode.Record(t3 - tr)
			p.netWait.Record(tr - t1 - svc)
			if sampled {
				link.cur.Store(0)
				buf.End(wait, tr)
				buf.Add(spanRespDecode, root, tr, t3)
				buf.End(root, t3)
			}
		}
	}
}

func (s *serveRun) openLoop(c *client, start, end int64, p *clientPass) {
	ol := &openLoop{
		rate:  s.cfg.openRate / serveConns,
		start: start,
		end:   end,
		shift: p.shift,
		rng:   c.olRNG,
		next:  func(r *olReq) { r.key, r.write = s.pick(c) },
		encode: func(w *resp.Writer, r *olReq) {
			r.ver = s.issue(w, r.key, r.write)
		},
		check: func(rd *resp.Reader, r *olReq) (bool, error) {
			return s.settle(rd, r.key, r.ver, r.write)
		},
	}
	ops0, failed0 := p.ol.ops, p.ol.failed
	ol.run(c.w, c.rd, &p.ol)
	p.ops += p.ol.ops - ops0
	if n := p.ol.failed - failed0; n > 0 {
		p.fail(n, "resp-serve: %d open-loop replies wrong or lost", n)
	}
	if p.ol.err != nil {
		p.err = p.ol.err
	}
}

// scanLoop reads SCANs of serveScanKeys consecutive keys from uniform
// start keys. No writes run
// in this phase, so every pair must match the last acknowledged write
// exactly and every range must come back complete.
func (s *serveRun) scanLoop(c *client, end int64, p *clientPass, buf *SpanBuf) {
	for i := 0; now() < end; i++ {
		lo := int64(c.rng.Uint64n(serveKeys - serveScanKeys + 1))
		hi := lo + serveScanKeys - 1
		t0 := now()
		c.w.ArrayHeader(5)
		c.w.BulkString("SCAN")
		c.w.BulkInt(lo)
		c.w.BulkInt(hi)
		c.w.BulkString("COUNT")
		c.w.BulkInt(serveScanKeys)
		if err := c.w.Flush(); err != nil {
			p.err = err
			return
		}
		rep, err := c.rd.ReadReply()
		if err != nil {
			p.err = err
			return
		}
		p.ops++
		good := rep.Kind == resp.Array && rep.N == 2*serveScanKeys+1
		n := 0
		for j := 0; j < rep.N-1; j += 2 {
			kr, err1 := c.rd.ReadReply()
			k, _ := resp.ParseInt(kr.Bulk)
			vr, err2 := c.rd.ReadReply()
			v, _ := resp.ParseInt(vr.Bulk)
			if err := errors.Join(err1, err2); err != nil {
				p.err = err
				return
			}
			if k != lo+int64(n) || v != valueAt(k, s.model.acked[k].Load()) {
				good = false
			}
			n++
		}
		if rep.N > 0 {
			verdict, err := c.rd.ReadReply()
			if err != nil {
				p.err = err
				return
			}
			if string(verdict.Bulk) != "consistent" {
				p.torn++
			}
		}
		t1 := now()
		p.scans++
		p.scanKeys.Add(t1-p.shift, int64(n))
		p.scanNS.Add(t1-p.shift, t1-t0)
		if !good {
			p.fail(1, "resp-serve: SCAN %d %d returned %d pairs, some wrong or missing", lo, hi, n)
		}
		if buf != nil && i%serveSampleEvery == 0 {
			buf.Add(spanClientScan, 0, t0, t1)
		}
	}
}
