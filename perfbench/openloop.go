package main

import (
	"math"
	"sync"

	"rma/internal/resp"
	"rma/internal/workload"
)

// olReq is one open-loop request.
type olReq struct {
	due   int64 // intended send time
	key   int64
	ver   uint32 // SET: version written; GET: acked version before sending
	write bool
}

// olMaxInFlight bounds the requests one connection has sent but not yet
// seen answered. Past it the sender waits, and since latency counts from
// each request's intended send time, the wait still shows.
const olMaxInFlight = 1 << 14

// openLoop drives one connection at Poisson arrivals of a fixed rate,
// whatever the server's pace. Latency runs from each request's intended
// send time to its decoded reply, so a stall also delays — and is
// charged to — every request due while it lasts. Requests that fall due
// together leave in one write and pipeline on the connection.
type openLoop struct {
	rate       float64 // requests per second on this connection
	start, end int64   // arrivals fall due in [start, end)
	shift      int64   // subtracted from a due time to window its sample
	rng        *workload.RNG
	// next fills a request's key and kind; encode writes it; check reads
	// its reply and reports whether it is correct.
	next   func(r *olReq)
	encode func(w *resp.Writer, r *olReq)
	check  func(rd *resp.Reader, r *olReq) (bool, error)
}

type olResult struct {
	read, write *winRec // latency from intended send, ns, windowed by due time
	lag         Rec     // how late the sender ran, ns
	ops, failed int64
	err         error
}

func (o *openLoop) gap() int64 {
	return int64(-math.Log(1-o.rng.Float64()) / o.rate * 1e9)
}

// run drives the connection behind w and rd until every request due
// before o.end is answered, and adds what it saw to res (a new result
// windowed from o.start when res is nil).
func (o *openLoop) run(w *resp.Writer, rd *resp.Reader, res *olResult) *olResult {
	if res == nil {
		res = &olResult{read: newWinRec(o.start), write: newWinRec(o.start)}
	}
	q := make(chan olReq, olMaxInFlight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range q {
			res.ops++
			if res.err != nil {
				res.failed++
				continue
			}
			ok, err := o.check(rd, &r)
			lat := now() - r.due
			if err != nil {
				res.err = err
				res.failed++
				continue
			}
			if !ok {
				res.failed++
			}
			if r.write {
				res.write.Record(r.due-o.shift, lat)
			} else {
				res.read.Record(r.due-o.shift, lat)
			}
		}
	}()

	pc, werr := newPacer()
	if werr != nil {
		close(q)
		wg.Wait()
		res.err = werr
		return res
	}
	defer pc.close()
	due := o.start + o.gap()
	for due < o.end && werr == nil {
		t := now()
		if t < due {
			if werr = pc.pause(due - t); werr != nil {
				break
			}
			t = now()
		}
		for due <= t && due < o.end {
			r := olReq{due: due}
			o.next(&r)
			o.encode(w, &r)
			res.lag.Record(t - due)
			select {
			case q <- r:
			default:
				// Full: the replies it waits for may still sit in the
				// write buffer.
				w.Flush()
				q <- r
			}
			due += o.gap()
		}
		werr = w.Flush()
	}
	close(q)
	wg.Wait()
	if res.err == nil {
		res.err = werr
	}
	return res
}
