package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"
)

// kind is one client operation type of the load.
type kind uint8

const (
	kAdd    kind = iota // PFADD key e1..ek
	kCount              // PFCOUNT key
	kUnion              // PFCOUNT k1..k8
	kWAdd               // WADD wkey <now> e1..ek
	kWCount             // WCOUNT wkey 30s
	numKinds
)

var kindNames = [numKinds]string{"add", "count", "union", "wadd", "wcount"}

const (
	unionKeys  = 8
	windowKeys = 64 // window rings allocate 60 dense slices (~860 KB) each; a small ring keyspace bounds memory
	wcountSpan = 30 * time.Second
)

// op is one generated client operation. Ops are generated from the seed
// before a phase starts, so what is sent never depends on timing.
type op struct {
	kind  kind
	key   string   // plain or window key
	union []string // kUnion: the keys counted together
	elems []string // kAdd, kWAdd: distinct elements, unique per op
}

// workload is one traffic mix against the cluster.
type workload struct {
	name      string
	keys      int
	prefix    string
	preload   func(key int) int // distinct elements preloaded into key i; nil for none
	mix       [numKinds]int     // op weights
	main      kind              // the op whose latency the end-to-end metrics report
	elems     int               // elements per add
	singleHop bool              // route through cluster.ClusterClient on strict-routing nodes
	depth     int               // closed-loop commands per batch
	rebalance bool              // a 4th node joins and leaves throughout the run
	closed    float64           // share of --seconds spent in the closed-loop phase
}

func countPreload(i int) int { return 200000 / (i + 1) }

var workloads = []*workload{
	{name: "ingest", keys: 5000, prefix: "ik", mix: [numKinds]int{kAdd: 1},
		elems: 4, depth: 32, closed: 0.4},
	{name: "count", keys: 2000, prefix: "ck", preload: countPreload,
		mix: [numKinds]int{kCount: 8, kUnion: 1}, main: kCount, depth: 8, closed: 0.6},
	{name: "mixed", keys: 1000, prefix: "mk", preload: func(int) int { return 1000 },
		mix: [numKinds]int{kAdd: 8, kCount: 1, kWAdd: 1, kWCount: 1}, elems: 2,
		singleHop: true, depth: 32, closed: 0.4},
	{name: "rebalance", keys: 2000, prefix: "ck", preload: countPreload,
		mix: [numKinds]int{kAdd: 8, kCount: 1, kWAdd: 1, kWCount: 1}, elems: 2,
		singleHop: true, depth: 32, rebalance: true, closed: 0.3},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) key(i int) string { return w.prefix + strconv.Itoa(i) }

func windowKey(i int) string { return "wk" + strconv.Itoa(i) }

// preloadElem is element j of preloaded key i.
func preloadElem(seed int64, key, j int) string {
	return "p" + strconv.FormatInt(seed, 36) + "." + strconv.Itoa(key) + "." + strconv.FormatInt(int64(j), 36)
}

// gen draws a workload's ops: kinds by the mix weights, keys by
// zipf(1.1), elements as fresh strings unique to the stream.
type gen struct {
	w       *workload
	rng     *rand.Rand
	keyZipf *rand.Zipf
	winZipf *rand.Zipf
	total   int
	seq     int64
}

// newGen seeds a generator from the run seed and a stream name, so each
// connection and phase gets its own reproducible stream.
func newGen(w *workload, seed int64, stream string) *gen {
	h := fnv.New64a()
	h.Write([]byte(w.name + "/" + stream))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	g := &gen{
		w:       w,
		rng:     rng,
		keyZipf: rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1)),
		winZipf: rand.NewZipf(rng, 1.1, 1, windowKeys-1),
	}
	for _, wt := range w.mix {
		g.total += wt
	}
	return g
}

func (g *gen) keyIndex() int { return int(g.keyZipf.Uint64()) }

// unionKeys draws unionKeys distinct key indices.
func (g *gen) unionKeys() [unionKeys]int32 {
	var out [unionKeys]int32
	seen := make(map[int]bool, unionKeys)
	for n := 0; n < unionKeys; {
		if i := g.keyIndex(); !seen[i] {
			seen[i] = true
			out[n] = int32(i)
			n++
		}
	}
	return out
}

// rec is a generated op in the compact, pointer-free form a stream
// keeps, so pre-generated load adds no scan work to the collector of
// the process under test. op materializes it.
type rec struct {
	kind kind
	key  int32 // key index; for kUnion, the index of its key set
	seq  int64 // kAdd, kWAdd: sequence number of the first element
}

// stream is one connection's pre-generated ops plus what became of
// each: sent at least once, acknowledged at least once.
type stream struct {
	w      *workload
	base   string // element prefix, unique to the stream
	recs   []rec
	unions [][unionKeys]int32
	tried  []bool
	acked  []bool
	pos    int
}

func newStream(w *workload, seed int64, name string, n int) *stream {
	g := newGen(w, seed, name)
	s := &stream{w: w, base: "e" + strconv.FormatInt(seed, 36) + "." + name + ".",
		recs: make([]rec, n), tried: make([]bool, n), acked: make([]bool, n)}
	for i := range s.recs {
		r := g.rng.Intn(g.total)
		k := kind(0)
		for r >= w.mix[k] {
			r -= w.mix[k]
			k++
		}
		rc := rec{kind: k}
		switch k {
		case kAdd, kCount:
			rc.key = int32(g.keyIndex())
		case kUnion:
			rc.key = int32(len(s.unions))
			s.unions = append(s.unions, g.unionKeys())
		case kWAdd, kWCount:
			rc.key = int32(g.winZipf.Uint64())
		}
		if k == kAdd || k == kWAdd {
			rc.seq = g.seq
			g.seq += int64(w.elems)
		}
		s.recs[i] = rc
	}
	return s
}

// op materializes op i of the stream.
func (s *stream) op(i int) op {
	rc := s.recs[i]
	o := op{kind: rc.kind}
	switch rc.kind {
	case kAdd, kCount:
		o.key = s.w.key(int(rc.key))
	case kUnion:
		for _, k := range s.unions[rc.key] {
			o.union = append(o.union, s.w.key(int(k)))
		}
	case kWAdd, kWCount:
		o.key = windowKey(int(rc.key))
	}
	if rc.kind == kAdd || rc.kind == kWAdd {
		o.elems = make([]string, s.w.elems)
		for j := range o.elems {
			o.elems[j] = s.base + strconv.FormatInt(rc.seq+int64(j), 36)
		}
	}
	return o
}

// take returns the indices of the next n ops, wrapping around when the
// stream is used up (re-sent adds are idempotent).
func (s *stream) take(n int, idx []int) []int {
	idx = idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, s.pos)
		s.pos = (s.pos + 1) % len(s.recs)
	}
	return idx
}
