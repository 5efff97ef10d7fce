package main

import (
	"fmt"
	"testing"
	"time"

	"exaloglog/cluster"
	"exaloglog/internal/compress"
	"exaloglog/internal/core"
	"exaloglog/window"
)

// Replay sample sizes. Layers reported with a p99 get at least 1000
// calls, so ten samples lie above it; the slow scatter-gather and codec
// calls report medians only.
const (
	replayAdds   = 1000
	replayBlobs  = 1000
	replayCodec  = 200
	replayCounts = 200
	replayUnions = 50
	replayWindow = 200
	maxBlobBytes = 1 << 28
)

// tracer keeps every span's duration in memory, by layer function.
type tracer map[string]samples

// span runs f and records its duration under name, in units of unit.
func (t tracer) span(name string, unit time.Duration, f func()) {
	t0 := time.Now()
	f()
	t.record(name, time.Since(t0), unit, 1)
}

// record adds d, shared by n calls, in units of unit.
func (t tracer) record(name string, d, unit time.Duration, n int) {
	t[name] = append(t[name], float64(d)/float64(unit)/float64(n))
}

func (t tracer) p50(name string) float64 {
	if len(t[name]) == 0 {
		return 0
	}
	v, _ := t[name].percentile(0.5)
	return v
}

// counters are the cluster and server counters a traced run reads
// before and after its load.
type counters struct {
	groups, batches, moved, wireBytes uint64
}

// wireVerbs are the verbs whose request and reply bytes make up the
// load's wire traffic, internal forwards (CLUSTER MLADD) and gathers
// (DUMPZ) included.
var wireVerbs = []string{"PFADD", "PFCOUNT", "WADD", "WCOUNT", "CLUSTER", "DUMPZ", "DUMP"}

func readCounters(c *benchCluster) counters {
	var k counters
	for _, nd := range c.nodes {
		s := nd.StatsCounters()
		k.groups += s.MLPFAddGroups
		k.batches += s.MLPFAddBatches
		k.moved += s.MovedReplies
		for _, verb := range wireVerbs {
			if v := nd.Server().Stats().Verb(verb); v != nil {
				in, out := v.Bytes()
				k.wireBytes += in + out
			}
		}
	}
	return k
}

// runTraced is one traced run: an untraced closed-loop phase, the
// workload's phases with a span around every client Exec, a replay of
// sampled ops into each layer's public functions, the gate (the replay
// re-sends only acknowledged elements, so no answer may change), and
// allocation counts once the cluster is stopped.
func runTraced(w *workload, seed int64, d time.Duration, rate float64) (*report, error) {
	r := &report{workload: w.name}
	c, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			c.close()
		}
	}()

	// Untraced closed-loop slices before and after the traced phases
	// give the tracing overhead; their symmetric order cancels a linear
	// drift of the program's speed over the run.
	closedD := time.Duration(float64(d) * w.closed)
	var base []*stream
	for ci := 0; ci < conns; ci++ {
		base = append(base, newStream(w, seed, fmt.Sprintf("u%d", ci), closedOps(w, rate, closedD)))
	}
	baseline := func() (*tally, error) {
		clients, err := dialClients(w, c)
		if err != nil {
			return nil, err
		}
		defer closeClients(clients)
		var cy *cycler
		if w.rebalance {
			cy = startCycler(c)
		}
		t := closedLoop(clients, base, w.depth, closedD/2, false)
		if cy != nil {
			if _, err := cy.finish(); err != nil {
				return nil, fmt.Errorf("rebalance cycle: %w", err)
			}
		}
		return t, nil
	}
	before, err := baseline()
	if err != nil {
		return nil, err
	}
	k0 := readCounters(c)
	ph, cycles, err := drive(w, c, seed, d, rate, true)
	if err != nil {
		return nil, err
	}
	k1 := readCounters(c)
	after, err := baseline()
	if err != nil {
		return nil, err
	}
	untraced := mergeAll([]*tally{before, after})
	untraced.elapsed = before.elapsed + after.elapsed
	streams := append(base, ph.streams...)
	a1, f1 := untraced.total()
	a2, f2 := ph.total()
	r.attempted, r.failed = a1+a2, f1+f2

	tr := tracer{}
	r.timing("loadgen.lag_us.p50", "loadgen.lag_us.p99", "us", ph.open.lag)
	r.add("loadgen.trace_overhead", "1",
		(float64(ph.closed.completed)/ph.closed.elapsed.Seconds())/(float64(untraced.completed)/untraced.elapsed.Seconds()), 0)
	exec := append(append(samples(nil), ph.closed.exec...), ph.open.exec...)
	r.timing("client.exec_us.p50", "client.exec_us.p99", "us", exec)
	ops := ph.closed.completed + ph.open.completed
	r.add("server.wire_bytes_per_op", "B/op", float64(k1.wireBytes-k0.wireBytes)/float64(max(ops, 1)), ops)
	groupsPerBatch := 0.0
	if k1.batches > k0.batches {
		groupsPerBatch = float64(k1.groups-k0.groups) / float64(k1.batches-k0.batches)
	}
	r.add("cluster.groups_per_batch", "1", groupsPerBatch, int(k1.batches-k0.batches))
	r.add("cluster.redirects", "count", float64(k1.moved-k0.moved+ph.clientMoved), 0)

	if !w.rebalance {
		cs, err := c.cycle()
		if err != nil {
			return nil, fmt.Errorf("rebalance cycle: %w", err)
		}
		cycles = []cycleStats{cs}
	}
	var pre, wire, retries uint64
	for _, cs := range cycles {
		tr.record("cluster.join_s", cs.join, time.Second, 1)
		tr.record("cluster.leave_s", cs.leave, time.Second, 1)
		tr.record("cluster.digest_sync_ms", cs.digest, time.Millisecond, 1)
		pre, wire, retries = pre+cs.preBytes, wire+cs.wireBytes, retries+cs.retries
	}
	r.timing("cluster.join_s.p50", "", "s", tr["cluster.join_s"])
	r.timing("cluster.leave_s.p50", "", "s", tr["cluster.leave_s"])
	r.timing("cluster.digest_sync_ms.p50", "", "ms", tr["cluster.digest_sync_ms"])
	r.add("cluster.xfer_wire_bytes", "B", float64(wire)/float64(max(len(cycles), 1)), len(cycles))
	r.add("cluster.xfer_ratio", "1", float64(pre)/float64(max(wire, 1)), len(cycles))
	r.add("cluster.xfer_retries", "count", float64(retries), len(cycles))

	capt, err := replay(tr, w, c, seed, streams)
	if err != nil {
		return nil, err
	}
	ref := newReference()
	ref.addPreload(w, seed)
	ref.addStreams(streams)
	if r.mismatches, _, err = ref.gate(c); err != nil {
		return nil, err
	}

	c.close()
	c = nil

	for _, l := range []struct {
		name, unit string
		tail       bool // sampled often enough for a p99
	}{
		{"server.store_add_ns", "ns", true},
		{"server.store_dump_us", "us", true},
		{"cluster.node_add_us", "us", true},
		{"cluster.node_count_us", "us", false},
		{"cluster.node_union_us", "us", false},
		{"cluster.node_wcount_us", "us", false},
		{"compress.encode_us", "us", false},
		{"compress.decode_us", "us", false},
		{"core.add_ns", "ns", true},
		{"core.frombinary_us", "us", true},
		{"core.merge_us", "us", true},
		{"core.estimate_us", "us", true},
		{"window.add_ns", "ns", true},
		{"window.estimate_us", "us", false},
	} {
		p99 := ""
		if l.tail {
			p99 = l.name + ".p99"
		}
		r.timing(l.name+".p50", p99, l.unit, tr[l.name])
	}
	r.add("compress.ratio", "1", capt.rawBytes/capt.encBytes, replayCodec)
	allocCounts(r, capt)
	r.notes = append(failures(untraced, ph.closed, ph.open), attribute(w, tr, ph.open)...)
	return r, nil
}

// captured holds inputs the replay saw, for the allocation counts.
type captured struct {
	blobs              [2][]byte
	enc                []byte
	store              *cluster.Node
	key                string
	elems              []string
	rawBytes, encBytes float64
}

// replay sends a sample of the run's ops straight into each layer's
// public functions. Adds re-send only acknowledged (or preloaded)
// elements, and merges and counts do not write, so the replay cannot
// change any answer.
func replay(tr tracer, w *workload, c *benchCluster, seed int64, streams []*stream) (*captured, error) {
	g := newGen(w, seed, "t")
	capt := &captured{}

	adds := ackedAdds(w, seed, g, streams)
	if len(adds) == 0 {
		return nil, fmt.Errorf("replay: %s acknowledged no adds", w.name)
	}
	for i, o := range adds {
		nd := c.nodes[i%numNodes]
		var err error
		tr.span("cluster.node_add_us", time.Microsecond, func() { _, err = nd.Add(o.key, o.elems...) })
		if err != nil {
			return nil, fmt.Errorf("replay Node.Add: %w", err)
		}
		st := c.owner(o.key).Store()
		tr.span("server.store_add_ns", time.Nanosecond, func() { _, err = st.Add(o.key, o.elems...) })
		if err != nil {
			return nil, fmt.Errorf("replay Store.Add: %w", err)
		}
		blob, _ := st.Dump(o.key)
		sk, err := core.FromBinary(blob)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, e := range o.elems {
			sk.AddString(e)
		}
		tr.record("core.add_ns", time.Since(t0), time.Nanosecond, len(o.elems))
	}
	capt.store, capt.key, capt.elems = c.owner(adds[0].key), adds[0].key, adds[0].elems

	// Blobs dumped from keys in the workload's key distribution.
	var prev *core.Sketch
	for tries := 0; len(tr["core.merge_us"]) < replayBlobs && tries < 20*replayBlobs; tries++ {
		key := w.key(g.keyIndex())
		st := c.owner(key).Store()
		t0 := time.Now()
		blob, ok := st.Dump(key)
		if !ok {
			continue // not written in this run
		}
		tr.record("server.store_dump_us", time.Since(t0), time.Microsecond, 1)
		var sk *core.Sketch
		var err error
		tr.span("core.frombinary_us", time.Microsecond, func() { sk, err = core.FromBinary(blob) })
		if err != nil {
			return nil, err
		}
		if prev != nil {
			tr.span("core.merge_us", time.Microsecond, func() { err = sk.Merge(prev) })
			if err != nil {
				return nil, err
			}
			// Estimate on a freshly merged sketch: nothing is cached.
			tr.span("core.estimate_us", time.Microsecond, func() { sk.Estimate() })
		}
		prev = sk
		if n := len(tr["core.frombinary_us"]); n <= len(capt.blobs) {
			capt.blobs[n-1] = blob
		}
		if len(tr["compress.encode_us"]) < replayCodec {
			var enc []byte
			tr.span("compress.encode_us", time.Microsecond, func() { enc = compress.EncodeBlob(blob) })
			tr.span("compress.decode_us", time.Microsecond, func() { _, err = compress.DecodeBlob(enc, maxBlobBytes) })
			if err != nil {
				return nil, err
			}
			if capt.enc == nil {
				capt.enc = enc
			}
			capt.rawBytes += float64(len(blob))
			capt.encBytes += float64(len(enc))
		}
	}
	if capt.blobs[1] == nil {
		return nil, fmt.Errorf("replay found fewer than two %s keys to dump", w.name)
	}

	for i := 0; i < replayCounts; i++ {
		nd, key := c.nodes[i%numNodes], w.key(g.keyIndex())
		var err error
		tr.span("cluster.node_count_us", time.Microsecond, func() { _, err = nd.Count(key) })
		if err != nil {
			return nil, fmt.Errorf("replay Node.Count: %w", err)
		}
	}
	for i := 0; i < replayUnions; i++ {
		nd, keys := c.nodes[i%numNodes], []string{}
		for _, k := range g.unionKeys() {
			keys = append(keys, w.key(int(k)))
		}
		var err error
		tr.span("cluster.node_union_us", time.Microsecond, func() { _, err = nd.Count(keys...) })
		if err != nil {
			return nil, fmt.Errorf("replay Node.Count union: %w", err)
		}
	}
	for i := 0; i < replayWindow; i++ {
		nd, key := c.nodes[i%numNodes], windowKey(int(g.winZipf.Uint64()))
		var err error
		tr.span("cluster.node_wcount_us", time.Microsecond, func() { _, err = nd.WindowCount(key, wcountSpan, 0) })
		if err != nil {
			return nil, fmt.Errorf("replay Node.WindowCount: %w", err)
		}
	}

	// The window layer on its own: a ring fed the sampled add elements
	// over wcountSpan, then queried over that span.
	ring, err := window.New(sketchConfig, time.Second, 60)
	if err != nil {
		return nil, err
	}
	t0 := time.Unix(1_700_000_000, 0)
	for i, o := range adds {
		ts := t0.Add(wcountSpan * time.Duration(i) / time.Duration(len(adds)))
		start := time.Now()
		for _, e := range o.elems {
			ring.AddString(ts, e)
		}
		tr.record("window.add_ns", time.Since(start), time.Nanosecond, len(o.elems))
	}
	for i := 0; i < replayWindow; i++ {
		tr.span("window.estimate_us", time.Microsecond, func() { ring.Estimate(ring.Latest(), wcountSpan) })
	}
	return capt, nil
}

// ackedAdds returns up to replayAdds acknowledged plain adds of the
// run; a workload that sends none re-adds preloaded elements instead.
func ackedAdds(w *workload, seed int64, g *gen, streams []*stream) []op {
	var out []op
	for _, s := range streams {
		for i, rc := range s.recs {
			if rc.kind == kAdd && s.acked[i] && len(out) < replayAdds {
				out = append(out, s.op(i))
			}
		}
	}
	for len(out) < replayAdds && w.preload != nil {
		i := g.keyIndex()
		o := op{kind: kAdd, key: w.key(i)}
		for j := 0; j < 4 && j < w.preload(i); j++ {
			o.elems = append(o.elems, preloadElem(seed, i, j))
		}
		out = append(out, o)
	}
	return out
}

// allocCounts measures allocations per call on the captured inputs;
// with the cluster stopped nothing else allocates, so the counts repeat
// exactly.
func allocCounts(r *report, capt *captured) {
	a, _ := core.FromBinary(capt.blobs[0])
	b, _ := core.FromBinary(capt.blobs[1])
	st := capt.store.Store()
	for _, m := range []struct {
		name string
		runs int
		f    func()
	}{
		{"core.estimate_allocs", 20, func() { a.Estimate() }},
		{"core.merge_allocs", 100, func() { a.Merge(b) }},
		{"compress.encode_allocs", 10, func() { compress.EncodeBlob(capt.blobs[0]) }},
		{"compress.decode_allocs", 10, func() { compress.DecodeBlob(capt.enc, maxBlobBytes) }},
		{"server.store_add_allocs", 100, func() { st.Add(capt.key, capt.elems...) }},
		{"server.store_dump_allocs", 100, func() { st.Dump(capt.key) }},
	} {
		r.add(m.name, "count", testing.AllocsPerRun(m.runs, m.f), 0)
	}
}

// attribute explains each op type's open-loop median by the layer
// medians on its blocking path, from outside the program: the nested
// cluster call covers the in-process path and the load generator sees
// how long an op waited for its connection; what remains is transport,
// server dispatch and server-side queueing, which only tracing inside
// the program could split further.
func attribute(w *workload, tr tracer, open *tally) []string {
	type term struct {
		name string
		v    float64
	}
	dump, enc, dec := tr.p50("server.store_dump_us"), tr.p50("compress.encode_us"), tr.p50("compress.decode_us")
	fb, mg, est := tr.p50("core.frombinary_us"), tr.p50("core.merge_us"), tr.p50("core.estimate_us")
	paths := map[kind]struct {
		outer string
		inner []term
	}{
		kAdd: {"cluster.node_add_us", []term{{"server.store_add", tr.p50("server.store_add_ns") / 1e3}}},
		// One owner's copy comes back DUMPZ-encoded from a peer while
		// the other is dumped locally or in parallel; then both are
		// decoded, merged and estimated serially.
		kCount: {"cluster.node_count_us", []term{
			{"server.store_dump", dump}, {"compress.encode", enc}, {"compress.decode", dec},
			{"core.frombinary", 2 * fb}, {"core.merge", mg}, {"core.estimate", est}}},
		// 16 copies from 3 owners: each owner dumps and encodes its
		// ~16/3 in sequence, in parallel with the others.
		kUnion: {"cluster.node_union_us", []term{
			{"server.store_dump", 16.0 / 3 * dump}, {"compress.encode", 16.0 / 3 * enc}, {"compress.decode", 16.0 / 3 * dec},
			{"core.frombinary", 16 * fb}, {"core.merge", 15 * mg}, {"core.estimate", est}}},
		kWAdd:   {"", []term{{"window.add", tr.p50("window.add_ns") * float64(w.elems) / 1e3}}},
		kWCount: {"cluster.node_wcount_us", []term{{"window.estimate", tr.p50("window.estimate_us")}}},
	}
	var lines []string
	for k := kind(0); k < numKinds; k++ {
		if w.mix[k] == 0 || len(open.lat[k]) == 0 {
			continue
		}
		e2e, _ := open.lat[k].percentile(0.5)
		p := paths[k]
		terms := append([]term(nil), p.inner...)
		path := 0.0
		for _, t := range p.inner {
			path += t.v
		}
		if p.outer != "" {
			outer := tr.p50(p.outer)
			terms = append(terms, term{"cluster (fan-out, peer round trips, base64)", outer - path})
			path = outer
		}
		queue, _ := open.queue[k].percentile(0.5)
		terms = append(terms, term{"loadgen queue wait", queue})
		path += queue
		terms = append(terms, term{"unattributed (transport, dispatch, server queue)", e2e - path})
		dom := terms[0]
		for _, t := range terms[1:] {
			if t.v > dom.v {
				dom = t
			}
		}
		line := fmt.Sprintf("attribution %s: e2e p50 %.1fus, layer path %.1fus (%.0f%%), residual %.1fus; dominant: %s;",
			kindNames[k], e2e, path, 100*path/e2e, e2e-path, dom.name)
		for _, t := range terms {
			line += fmt.Sprintf(" %s=%.1fus", t.name, t.v)
		}
		lines = append(lines, line)
	}
	return lines
}
