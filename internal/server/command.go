package server

import (
	"reflect"
	"strconv"

	"rma"
	"rma/internal/resp"
)

// Per-connection pipelined coalescing.
//
// A pipeline holds at most one pending run, and the run is homogeneous:
// either coalescible point reads (GET, EXISTS, MGET) or coalescible
// upserts (SET, MSET). Reads flush through one Sharded.GetBatch, writes
// through one Sharded.ApplyBatch; the replies are emitted in command
// order at flush time. Any command outside the run's class flushes it
// first, so one connection's commands always take effect (and answer)
// in the order they were sent.
//
// DEL is a write but not part of the coalesced run: its reply is the
// number of keys that existed, which the aggregate ApplyBatch result
// cannot attribute per command once SET's delete+put pairs share the
// batch. A DEL therefore flushes the run and applies as its own batch
// (multi-key DELs still ride one ApplyBatch).

type runClass uint8

const (
	runNone runClass = iota
	runRead
	runWrite
)

// readCmd is one queued read command: its kind and how many of the
// pipeline's queued keys it owns.
type readCmd struct {
	kind  byte // 'g' GET, 'e' EXISTS, 'm' MGET
	nkeys int
}

// pipeline is one connection's pending coalesced run plus its reusable
// scratch. All storage is reused across flushes, so a steady-state
// connection batches without allocating.
type pipeline struct {
	class     runClass
	reads     []readCmd
	keys      []int64 // queued read probe keys
	ops       []rma.BatchOp
	writeCmds int // queued SET/MSET commands (each answers +OK)
	looks     []rma.Lookup
	scan      scanBuf
}

// scanBuf collects one SCAN command's results before the array header
// (whose length must be known first) is written.
type scanBuf struct {
	keys, vals []int64
}

func (p *pipeline) count() int {
	if p.class == runRead {
		return len(p.reads)
	}
	return p.writeCmds
}

func (p *pipeline) resetRead() {
	p.reads = p.reads[:0]
	p.keys = p.keys[:0]
	p.class = runNone
}

func (p *pipeline) resetWrite() {
	p.ops = p.ops[:0]
	p.writeCmds = 0
	p.class = runNone
}

// flushPending executes and answers the pending run, if any.
func (s *Server) flushPending(p *pipeline, w *resp.Writer) {
	switch p.class {
	case runRead:
		s.flushReads(p, w)
	case runWrite:
		s.flushWrites(p, w)
	}
}

// flushReads resolves the queued point reads through one GetBatch and
// answers each command in order.
func (s *Server) flushReads(p *pipeline, w *resp.Writer) {
	p.looks = s.db.GetBatch(p.keys, p.looks)
	s.readBatches.Add(1)
	s.readBatched.Add(uint64(len(p.reads)))
	i := 0
	for _, rc := range p.reads {
		group := p.looks[i : i+rc.nkeys]
		i += rc.nkeys
		switch rc.kind {
		case 'g':
			if group[0].OK {
				w.BulkInt(group[0].Val)
			} else {
				w.Null()
			}
		case 'e':
			n := int64(0)
			for _, l := range group {
				if l.OK {
					n++
				}
			}
			w.Int(n)
		case 'm':
			w.ArrayHeader(len(group))
			for _, l := range group {
				if l.OK {
					w.BulkInt(l.Val)
				} else {
					w.Null()
				}
			}
		}
	}
	p.resetRead()
}

// flushWrites applies the queued upserts through one ApplyBatch and
// answers +OK per command (or the engine error to every command in the
// batch — the batch is not atomic across shards, so after an error the
// client must treat the run's effects as partial).
func (s *Server) flushWrites(p *pipeline, w *resp.Writer) {
	_, err := s.db.ApplyBatch(p.ops)
	s.writeBatches.Add(1)
	s.writeBatched.Add(uint64(p.writeCmds))
	for i := 0; i < p.writeCmds; i++ {
		if err != nil {
			s.errorReplies.Add(1)
			w.Error("ERR " + err.Error())
		} else {
			w.SimpleString("OK")
		}
	}
	p.resetWrite()
}

// beginRead ensures the pipeline is collecting reads.
func (s *Server) beginRead(p *pipeline, w *resp.Writer) {
	if p.class == runWrite {
		s.flushWrites(p, w)
	}
	p.class = runRead
}

// beginWrite ensures the pipeline is collecting writes.
func (s *Server) beginWrite(p *pipeline, w *resp.Writer) {
	if p.class == runRead {
		s.flushReads(p, w)
	}
	p.class = runWrite
}

// argErr flushes pending work (reply order!) and emits an error reply.
func (s *Server) argErr(p *pipeline, w *resp.Writer, msg string) bool {
	s.flushPending(p, w)
	s.errorReplies.Add(1)
	w.Error(msg)
	return false
}

// upperName uppercases the command name into buf (commands are short
// ASCII; anything longer than buf cannot be a known command).
func upperName(buf []byte, name []byte) []byte {
	if len(name) > len(buf) {
		return nil
	}
	for i, b := range name {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		buf[i] = b
	}
	return buf[:len(name)]
}

// dispatch routes one parsed command: coalescible commands queue on the
// pipeline, everything else flushes it and executes immediately. The
// return value reports whether the connection should close (QUIT,
// SHUTDOWN).
func (s *Server) dispatch(p *pipeline, w *resp.Writer, cmd [][]byte) bool {
	if len(cmd) == 0 {
		return s.argErr(p, w, "ERR empty command")
	}
	var nameBuf [16]byte
	name := upperName(nameBuf[:], cmd[0])
	args := cmd[1:]

	switch string(name) { // compiler optimizes the []byte->string switch, no alloc
	case "GET":
		if len(args) != 1 {
			return s.wrongArity(p, w, "GET")
		}
		k, ok := resp.ParseInt(args[0])
		if !ok {
			return s.intErr(p, w)
		}
		s.beginRead(p, w)
		p.keys = append(p.keys, k)
		p.reads = append(p.reads, readCmd{kind: 'g', nkeys: 1})

	case "EXISTS", "MGET":
		if len(args) == 0 {
			return s.wrongArity(p, w, string(name))
		}
		kind := byte('e')
		if name[0] == 'M' {
			kind = 'm'
		}
		nk := 0
		for _, a := range args {
			k, ok := resp.ParseInt(a)
			if !ok {
				p.keys = p.keys[:len(p.keys)-nk] // drop the partial command
				return s.intErr(p, w)
			}
			p.keys = append(p.keys, k)
			nk++
		}
		s.beginRead(p, w)
		p.reads = append(p.reads, readCmd{kind: kind, nkeys: nk})

	case "SET":
		if len(args) != 2 {
			return s.wrongArity(p, w, "SET")
		}
		k, ok1 := resp.ParseInt(args[0])
		v, ok2 := resp.ParseInt(args[1])
		if !ok1 || !ok2 {
			return s.intErr(p, w)
		}
		s.beginWrite(p, w)
		p.ops = append(p.ops,
			rma.BatchOp{Kind: rma.OpDelete, Key: k},
			rma.BatchOp{Kind: rma.OpPut, Key: k, Val: v})
		p.writeCmds++

	case "MSET":
		if len(args) == 0 || len(args)%2 != 0 {
			return s.wrongArity(p, w, "MSET")
		}
		nops := 0
		for i := 0; i < len(args); i += 2 {
			k, ok1 := resp.ParseInt(args[i])
			v, ok2 := resp.ParseInt(args[i+1])
			if !ok1 || !ok2 {
				p.ops = p.ops[:len(p.ops)-nops]
				return s.intErr(p, w)
			}
			p.ops = append(p.ops,
				rma.BatchOp{Kind: rma.OpDelete, Key: k},
				rma.BatchOp{Kind: rma.OpPut, Key: k, Val: v})
			nops += 2
		}
		s.beginWrite(p, w)
		p.writeCmds++

	case "DEL":
		if len(args) == 0 {
			return s.wrongArity(p, w, "DEL")
		}
		s.flushPending(p, w)
		ops := p.ops[:0]
		for _, a := range args {
			k, ok := resp.ParseInt(a)
			if !ok {
				return s.intErr(p, w)
			}
			ops = append(ops, rma.BatchOp{Kind: rma.OpDelete, Key: k})
		}
		p.ops = ops[:0]
		deleted, err := s.db.ApplyBatch(ops)
		if err != nil {
			s.errorReplies.Add(1)
			w.Error("ERR " + err.Error())
			return false
		}
		w.Int(int64(deleted))

	case "SCAN":
		return s.scanCmd(p, w, args)

	case "COUNT":
		if len(args) != 2 {
			return s.wrongArity(p, w, "COUNT")
		}
		lo, ok1 := resp.ParseInt(args[0])
		hi, ok2 := resp.ParseInt(args[1])
		if !ok1 || !ok2 {
			return s.intErr(p, w)
		}
		s.flushPending(p, w)
		w.Int(int64(s.db.CountRange(lo, hi)))

	case "LEN", "DBSIZE":
		s.flushPending(p, w)
		w.Int(int64(s.db.Size()))

	case "PING":
		s.flushPending(p, w)
		if len(args) == 1 {
			w.BulkBytes(args[0])
		} else {
			w.SimpleString("PONG")
		}

	case "ECHO":
		if len(args) != 1 {
			return s.wrongArity(p, w, "ECHO")
		}
		s.flushPending(p, w)
		w.BulkBytes(args[0])

	case "STATS", "INFO":
		s.flushPending(p, w)
		s.statsCmd(w)

	case "CHECKPOINT":
		if len(args) != 0 {
			return s.wrongArity(p, w, "CHECKPOINT")
		}
		s.flushPending(p, w)
		if !s.db.Durable() {
			s.errorReplies.Add(1)
			w.Error("ERR store is not durable")
			return false
		}
		// Prefer the background round (the maintenance pool drives it and
		// no client blocks); without a pool, or when a round is already in
		// flight, run synchronously — CheckpointAll helps an in-flight
		// round finish and then publishes its own.
		if s.db.RequestCheckpoint() {
			w.SimpleString("Background checkpoint started")
		} else if err := s.db.Checkpoint(); err != nil {
			s.errorReplies.Add(1)
			w.Error("ERR " + err.Error())
			return false
		} else {
			w.SimpleString("OK")
		}

	case "LASTSAVE":
		if len(args) != 0 {
			return s.wrongArity(p, w, "LASTSAVE")
		}
		s.flushPending(p, w)
		rounds, lsn := s.db.LastCheckpoint()
		w.ArrayHeader(2)
		w.Int(int64(rounds))
		w.Int(int64(lsn))

	case "FLUSH":
		s.flushPending(p, w)
		if err := s.db.Flush(); err != nil {
			s.errorReplies.Add(1)
			w.Error("ERR " + err.Error())
			return false
		}
		w.SimpleString("OK")

	case "QUIT":
		s.flushPending(p, w)
		w.SimpleString("OK")
		return true

	case "SHUTDOWN":
		s.flushPending(p, w)
		w.SimpleString("OK")
		s.shutdownOnce.Do(func() { close(s.shutdownCh) })
		return true

	default:
		return s.argErr(p, w, "ERR unknown command '"+string(cmd[0])+"'")
	}
	return false
}

func (s *Server) wrongArity(p *pipeline, w *resp.Writer, name string) bool {
	return s.argErr(p, w, "ERR wrong number of arguments for '"+name+"'")
}

func (s *Server) intErr(p *pipeline, w *resp.Writer) bool {
	return s.argErr(p, w, "ERR value is not an integer or out of range")
}

// scanCmd answers SCAN lo hi [COUNT n]: up to n elements of [lo, hi] in
// key order as a flat key,value,... array, read through SnapshotScan. A
// final element reports the traversal's consistency verdict ("consistent"
// or "torn") — clients needing one cut retry on "torn" (see SERVING.md).
func (s *Server) scanCmd(p *pipeline, w *resp.Writer, args [][]byte) bool {
	if len(args) != 2 && len(args) != 4 {
		return s.wrongArity(p, w, "SCAN")
	}
	lo, ok1 := resp.ParseInt(args[0])
	hi, ok2 := resp.ParseInt(args[1])
	if !ok1 || !ok2 {
		return s.intErr(p, w)
	}
	count := 128
	if len(args) == 4 {
		var cBuf [8]byte
		if string(upperName(cBuf[:], args[2])) != "COUNT" {
			return s.argErr(p, w, "ERR syntax error")
		}
		n, ok := resp.ParseInt(args[3])
		if !ok || n <= 0 {
			return s.intErr(p, w)
		}
		count = int(min(n, int64(s.cfg.MaxScanCount)))
	}
	s.flushPending(p, w)

	sb := &p.scan
	sb.keys, sb.vals = sb.keys[:0], sb.vals[:0]
	consistent := s.db.SnapshotScan(lo, hi, func(k, v int64) bool {
		sb.keys = append(sb.keys, k)
		sb.vals = append(sb.vals, v)
		return len(sb.keys) < count
	})
	w.ArrayHeader(2*len(sb.keys) + 1)
	for i := range sb.keys {
		w.BulkInt(sb.keys[i])
		w.BulkInt(sb.vals[i])
	}
	if consistent {
		w.BulkString("consistent")
	} else {
		w.BulkString("torn")
	}
	return false
}

// statsCmd answers STATS with one bulk string of "name value" lines:
// every field of the store's Stats, the shard count, then every server
// counter prefixed "server_".
func (s *Server) statsCmd(w *resp.Writer) {
	b := appendStats(nil, "", s.db.Stats())
	b = appendStats(b, "", struct{ Shards int }{s.db.NumShards()})
	w.BulkBytes(appendStats(b, "server_", s.Stats()))
}

// appendStats appends one line per field of the integer-valued struct
// st, in declaration order, named prefix plus the field name in
// snake_case.
func appendStats(b []byte, prefix string, st any) []byte {
	v := reflect.ValueOf(st)
	for i := range v.NumField() {
		b = append(b, prefix...)
		b = appendSnake(b, v.Type().Field(i).Name)
		b = append(b, ' ')
		if f := v.Field(i); f.CanInt() {
			b = strconv.AppendInt(b, f.Int(), 10)
		} else {
			b = strconv.AppendUint(b, f.Uint(), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// appendSnake appends a Go field name in snake_case, splitting before
// each word and after an acronym: WALRecords → wal_records,
// CheckpointLSN → checkpoint_lsn.
func appendSnake(b []byte, name string) []byte {
	upper := func(i int) bool { return i < len(name) && 'A' <= name[i] && name[i] <= 'Z' }
	for i := range len(name) {
		c := name[i]
		if upper(i) {
			if i > 0 && (!upper(i-1) || i+1 < len(name) && !upper(i+1)) {
				b = append(b, '_')
			}
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}
