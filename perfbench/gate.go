package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"exaloglog/cluster"
	"exaloglog/internal/core"
)

// reference holds, per plain key, a single-process sketch of every
// element the cluster acknowledged. Replicas merge to the same
// registers, so the cluster's PFCOUNT must equal the reference's
// estimate exactly.
type reference struct {
	acked map[string]*core.Sketch
	truth map[string]int          // distinct elements acknowledged
	tried map[string]*core.Sketch // keys with a failed add: acknowledged plus attempted elements
}

func newReference() *reference {
	return &reference{acked: map[string]*core.Sketch{}, truth: map[string]int{}, tried: map[string]*core.Sketch{}}
}

func (r *reference) sketch(key string) *core.Sketch {
	sk, ok := r.acked[key]
	if !ok {
		sk = core.MustNew(sketchConfig)
		r.acked[key] = sk
	}
	return sk
}

// addPreload records w's preloaded keyspace.
func (r *reference) addPreload(w *workload, seed int64) {
	if w.preload == nil {
		return
	}
	for i := 0; i < w.keys; i++ {
		key, n := w.key(i), w.preload(i)
		sk := r.sketch(key)
		for j := 0; j < n; j++ {
			sk.AddString(preloadElem(seed, i, j))
		}
		r.truth[key] += n
	}
}

// addStreams records the plain adds of the streams: acknowledged ones
// into the reference, failed ones into the key's attempted range.
func (r *reference) addStreams(streams []*stream) {
	var failed []op
	for _, s := range streams {
		for i, rc := range s.recs {
			if rc.kind != kAdd || !s.tried[i] {
				continue
			}
			o := s.op(i)
			if !s.acked[i] {
				failed = append(failed, o)
				continue
			}
			sk := r.sketch(o.key)
			for _, e := range o.elems {
				sk.AddString(e)
			}
			r.truth[o.key] += len(o.elems)
		}
	}
	for _, o := range failed {
		hi, ok := r.tried[o.key]
		if !ok {
			hi = r.sketch(o.key).Clone()
			r.tried[o.key] = hi
		}
		for _, e := range o.elems {
			hi.AddString(e)
		}
	}
}

func rounded(sk *core.Sketch) int64 { return int64(sk.Estimate() + 0.5) }

// gate counts every referenced key through the cluster and compares.
// It returns one line per mismatch and the RMS relative error of the
// cluster's counts against the true distinct counts (keys without
// failed adds).
func (r *reference) gate(c *benchCluster) (mismatches []string, rmsErr float64, err error) {
	keys := make([]string, 0, len(r.acked))
	for k := range r.acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got, err := countAll(c, keys)
	if err != nil {
		return nil, 0, err
	}
	var sq float64
	var n int
	for i, key := range keys {
		lo := rounded(r.acked[key])
		if hiSk, ok := r.tried[key]; ok {
			if hi := rounded(hiSk); got[i] < lo || got[i] > hi {
				mismatches = append(mismatches, fmt.Sprintf("key %s: cluster PFCOUNT %d outside acknowledged..attempted reference [%d, %d]", key, got[i], lo, hi))
			}
			continue
		}
		if got[i] != lo {
			mismatches = append(mismatches, fmt.Sprintf("key %s: cluster PFCOUNT %d != reference %d", key, got[i], lo))
		}
		if t := r.truth[key]; t > 0 {
			d := float64(got[i])/float64(t) - 1
			sq += d * d
			n++
		}
	}
	if n > 0 {
		rmsErr = math.Sqrt(sq / float64(n))
	}
	return mismatches, rmsErr, nil
}

// countAll answers PFCOUNT for every key through the cluster, on two
// smart-client connections.
func countAll(c *benchCluster, keys []string) ([]int64, error) {
	const batch = 64
	out := make([]int64, len(keys))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cc, err := cluster.DialCluster(c.addrs()...)
			if err != nil {
				errs[ci] = err
				return
			}
			defer cc.Close()
			for lo := ci * batch; lo < len(keys); lo += conns * batch {
				hi := min(lo+batch, len(keys))
				b := cc.Batch()
				for _, k := range keys[lo:hi] {
					b.PFCount(k)
				}
				res, err := b.Exec()
				if err != nil {
					errs[ci] = err
					return
				}
				for j, r := range res {
					if r.Err != nil {
						errs[ci] = fmt.Errorf("gate PFCOUNT %s: %w", keys[lo+j], r.Err)
						return
					}
					if out[lo+j], err = strconv.ParseInt(r.Value, 10, 64); err != nil {
						errs[ci] = fmt.Errorf("gate PFCOUNT %s: %w", keys[lo+j], err)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// residentBytesPerKey is the served footprint: resident sketch bytes
// over every node divided by the values stored (live keys × replicas).
func residentBytesPerKey(c *benchCluster) float64 {
	var bytes int64
	var vals int
	for _, nd := range c.nodes {
		_, _, b := nd.Store().LifecycleStats()
		bytes += b
		vals += nd.Store().Len()
	}
	if vals == 0 {
		return 0
	}
	return float64(bytes) / float64(vals)
}
