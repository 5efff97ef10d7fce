package main

import (
	"sync"
	"syscall"
	"time"

	"exaloglog/cluster"
	"exaloglog/server"
)

const (
	conns        = 2  // pipelined load connections: at most nproc on the 2-CPU reference box
	maxOpenBatch = 64 // ops sent together when several fell due during one round trip
	nsPerUs      = 1e3
)

// client sends one batch of ops and returns one error per op. A batch
// lost to a transport error fails every op in it.
type client interface {
	exec(batch []op) []error
	close()
}

// pipeClient is the coordinator route: one pipelined connection to one
// node, which forwards to the owners.
type pipeClient struct {
	addr string
	c    *server.Client
}

func (p *pipeClient) exec(batch []op) []error {
	errs := make([]error, len(batch))
	if p.c == nil {
		c, err := server.Dial(p.addr)
		if err != nil {
			return fill(errs, err)
		}
		p.c = c
	}
	pl := p.c.Pipeline()
	for _, o := range batch {
		switch o.kind {
		case kAdd:
			pl.PFAdd(o.key, o.elems...)
		case kCount:
			pl.PFCount(o.key)
		case kUnion:
			pl.PFCount(o.union...)
		case kWAdd:
			pl.WAdd(o.key, time.Now().UnixMilli(), o.elems...)
		case kWCount:
			pl.WCount(o.key, wcountSpan)
		}
	}
	res, err := pl.Exec()
	if err != nil {
		p.c.Close()
		p.c = nil
		return fill(errs, err)
	}
	for i, r := range res {
		errs[i] = r.Err
	}
	return errs
}

func (p *pipeClient) close() {
	if p.c != nil {
		p.c.Close()
	}
}

// hopClient is the single-hop route: cluster.ClusterClient batches
// sent straight to the owners of each key.
type hopClient struct {
	cc *cluster.ClusterClient
}

func (h *hopClient) exec(batch []op) []error {
	b := h.cc.Batch()
	for _, o := range batch {
		switch o.kind {
		case kAdd:
			b.PFAdd(o.key, o.elems...)
		case kCount:
			b.PFCount(o.key)
		case kWAdd:
			b.WAdd(o.key, time.Now().UnixMilli(), o.elems...)
		case kWCount:
			b.WCount(o.key, wcountSpan)
		default:
			panic("single-hop route cannot send " + kindNames[o.kind])
		}
	}
	errs := make([]error, len(batch))
	res, err := b.Exec()
	if err != nil {
		return fill(errs, err)
	}
	for i, r := range res {
		errs[i] = r.Err
	}
	return errs
}

func (h *hopClient) close() { h.cc.Close() }

func fill(errs []error, err error) []error {
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// dialClients opens the load connections for w.
func dialClients(w *workload, c *benchCluster) ([]client, error) {
	out := make([]client, 0, conns)
	for i := 0; i < conns; i++ {
		if !w.singleHop {
			out = append(out, &pipeClient{addr: c.nodes[i%numNodes].Addr()})
			continue
		}
		cc, err := cluster.DialCluster(c.addrs()...)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, &hopClient{cc: cc})
	}
	return out, nil
}

func closeClients(cs []client) {
	for _, c := range cs {
		c.close()
	}
}

// tally is what one phase observed.
type tally struct {
	attempted, failed, refused [numKinds]int
	completed                  int
	elapsed                    time.Duration
	lat                        [numKinds]samples // µs from due time to reply, open loop only
	queue                      [numKinds]samples // µs from due time to send, open loop only
	lag                        samples           // µs the sender woke after an op fell due
	exec                       samples           // µs per batch round trip, traced runs only
}

func (t *tally) record(s *stream, idx []int, errs []error) {
	for j, i := range idx {
		k := s.recs[i].kind
		s.tried[i] = true
		t.attempted[k]++
		switch err := errs[j]; {
		case err == nil:
			s.acked[i] = true
			t.completed++
		case isRefused(err):
			t.refused[k]++
		default:
			t.failed[k]++
		}
	}
}

// isRefused reports a -MOVED the client ran out of redirect budget on.
func isRefused(err error) bool {
	_, ok := server.AsMoved(err)
	return ok
}

func (t *tally) merge(o *tally) {
	for k := kind(0); k < numKinds; k++ {
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
		t.refused[k] += o.refused[k]
		t.lat[k] = append(t.lat[k], o.lat[k]...)
		t.queue[k] = append(t.queue[k], o.queue[k]...)
	}
	t.completed += o.completed
	if o.elapsed > t.elapsed {
		t.elapsed = o.elapsed
	}
	t.lag = append(t.lag, o.lag...)
	t.exec = append(t.exec, o.exec...)
}

func (t *tally) total() (attempted, failed int) {
	for k := kind(0); k < numKinds; k++ {
		attempted += t.attempted[k]
		failed += t.failed[k] + t.refused[k]
	}
	return attempted, failed
}

// closedLoop has every connection send its next batch of depth ops only
// after the previous batch's replies arrived, for d.
func closedLoop(clients []client, streams []*stream, depth int, d time.Duration, traced bool) *tally {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			t, s, c := &tally{}, streams[ci], clients[ci]
			var idx []int
			batch := make([]op, depth)
			for time.Now().Before(deadline) {
				idx = s.take(depth, idx)
				for j, i := range idx {
					batch[j] = s.op(i)
				}
				t0 := time.Now()
				errs := c.exec(batch)
				if traced {
					t.exec = append(t.exec, float64(time.Since(t0))/nsPerUs)
				}
				t.record(s, idx, errs)
			}
			t.elapsed = time.Since(start)
			parts[ci] = t
		}(ci)
	}
	wg.Wait()
	return mergeAll(parts)
}

func mergeAll(parts []*tally) *tally {
	t := &tally{}
	for _, p := range parts {
		t.merge(p)
	}
	return t
}

// openLoop sends each connection's stream on a fixed schedule, rate ops
// per second in total, whatever the replies do. An op's latency runs
// from when it was due to when its reply arrived, so a stall also
// charges the ops that queued behind it. Ops that fall due while a
// batch is in flight go out together in the next one.
func openLoop(clients []client, streams []*stream, rate float64, traced bool) *tally {
	start := time.Now()
	interval := time.Duration(float64(len(clients)) / rate * float64(time.Second))
	parts := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			t, s, c := &tally{}, streams[ci], clients[ci]
			first := start.Add(interval * time.Duration(ci) / time.Duration(len(clients)))
			due := func(i int) time.Time { return first.Add(interval * time.Duration(i)) }
			var idx []int
			batch := make([]op, 0, maxOpenBatch)
			for next := 0; next < len(s.recs); {
				now := time.Now()
				if wait := due(next).Sub(now); wait > 0 {
					sleep(wait)
					now = time.Now()
					t.lag = append(t.lag, float64(now.Sub(due(next)))/nsPerUs)
				}
				idx, batch = idx[:0], batch[:0]
				for i := next; i < len(s.recs) && len(idx) < maxOpenBatch && !due(i).After(now); i++ {
					idx = append(idx, i)
					batch = append(batch, s.op(i))
				}
				next += len(idx)
				t0 := time.Now()
				errs := c.exec(batch)
				replied := time.Now()
				if traced {
					t.exec = append(t.exec, float64(replied.Sub(t0))/nsPerUs)
				}
				t.record(s, idx, errs)
				for j, i := range idx {
					if errs[j] == nil {
						k := s.recs[i].kind
						t.lat[k] = append(t.lat[k], float64(replied.Sub(due(i)))/nsPerUs)
						t.queue[k] = append(t.queue[k], float64(t0.Sub(due(i)))/nsPerUs)
					}
				}
			}
			t.elapsed = time.Since(start)
			parts[ci] = t
		}(ci)
	}
	wg.Wait()
	return mergeAll(parts)
}

// sleep blocks the calling thread in the kernel: the runtime's timers
// round sub-millisecond sleeps up to about a millisecond, which would
// make the sender late by more than many replies take.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
