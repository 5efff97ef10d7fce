package main

import (
	"fmt"
	"sync"
	"time"

	"exaloglog/cluster"
	"exaloglog/internal/core"
	"exaloglog/server"
)

const (
	numNodes    = 3
	replicas    = 2
	precision   = 12
	peerTimeout = 5 * time.Second // elld -peer-timeout default
	preloadCmd  = 256             // elements per preload PFADD
	preloadPipe = 16              // preload PFADDs per pipelined batch
)

var sketchConfig = core.RecommendedML(precision)

// benchCluster is an in-process cluster with elld's defaults. No
// timer-driven loops run (gossip, sync and sweep tickers are elld
// wiring), so background work happens only where a workload asks.
type benchCluster struct {
	nodes  []*cluster.Node
	strict bool
	guests int // 4th-node incarnations started so far
}

func newNode(id string) (*cluster.Node, error) {
	nd, err := cluster.NewNode(id, sketchConfig, replicas)
	if err != nil {
		return nil, err
	}
	nd.SetPeerTimeout(peerTimeout)
	if err := nd.Start("127.0.0.1:0"); err != nil {
		nd.Close()
		return nil, err
	}
	return nd, nil
}

func bootCluster() (*benchCluster, error) {
	c := &benchCluster{}
	for i := 0; i < numNodes; i++ {
		nd, err := newNode(fmt.Sprintf("n%d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		if i > 0 {
			if err := nd.Join(c.nodes[0].Addr()); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *benchCluster) close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}

func (c *benchCluster) addrs() []string {
	out := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Addr()
	}
	return out
}

func (c *benchCluster) setStrict(on bool) {
	c.strict = on
	for _, nd := range c.nodes {
		nd.SetStrictRouting(on)
	}
}

// owner returns the node holding key's primary copy.
func (c *benchCluster) owner(key string) *cluster.Node {
	id := c.nodes[0].Map().Owners(key)[0].ID
	for _, nd := range c.nodes {
		if nd.ID() == id {
			return nd
		}
	}
	return c.nodes[0]
}

// setup boots the cluster and preloads w's keyspace through the
// coordinator route on two pipelined connections; single-hop workloads
// then switch the nodes to strict routing.
func setup(w *workload, seed int64) (*benchCluster, error) {
	c, err := bootCluster()
	if err != nil {
		return nil, err
	}
	if w.preload != nil {
		if err := preload(c, w, seed); err != nil {
			c.close()
			return nil, err
		}
	}
	c.setStrict(w.singleHop)
	return c, nil
}

func preload(c *benchCluster, w *workload, seed int64) error {
	const conns = 2
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = preloadConn(c.nodes[ci%numNodes].Addr(), w, seed, ci, conns)
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// preloadConn sends every key i ≡ ci (mod conns) its preload elements.
func preloadConn(addr string, w *workload, seed int64, ci, conns int) error {
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	pl := cl.Pipeline()
	elems := make([]string, 0, preloadCmd)
	flush := func() error {
		res, err := pl.Exec()
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	for i := ci; i < w.keys; i += conns {
		key, n := w.key(i), w.preload(i)
		for j := 0; j < n; j++ {
			elems = append(elems, preloadElem(seed, i, j))
			if len(elems) == preloadCmd || j == n-1 {
				pl.PFAdd(key, elems...)
				elems = elems[:0]
				if pl.Len() == preloadPipe {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
	}
	return flush()
}

// cycleStats is one join+leave cycle of a 4th node.
type cycleStats struct {
	join, digest, leave time.Duration
	preBytes, wireBytes uint64 // transfer payload before and after the codec
	retries             uint64 // resumed streams + frame re-sends + per-key fallbacks
}

func transferTotals(nodes ...*cluster.Node) cluster.TransferStats {
	var t cluster.TransferStats
	for _, nd := range nodes {
		s := nd.TransferStats()
		t.StreamsResumed += s.StreamsResumed
		t.FrameRetries += s.FrameRetries
		t.FallbackKeys += s.FallbackKeys
		t.BytesPrecompress += s.BytesPrecompress
		t.BytesWire += s.BytesWire
	}
	return t
}

// cycle has a fresh 4th node join (Join returns once the cluster has
// rebalanced), runs one digest anti-entropy round, and has the node
// leave again, draining its keys back.
func (c *benchCluster) cycle() (cycleStats, error) {
	var cs cycleStats
	c.guests++
	g, err := newNode(fmt.Sprintf("g%d", c.guests))
	if err != nil {
		return cs, err
	}
	defer g.Close()
	g.SetStrictRouting(c.strict)
	before := transferTotals(c.nodes...)
	t := time.Now()
	if err := g.Join(c.nodes[0].Addr()); err != nil {
		return cs, err
	}
	cs.join = time.Since(t)
	t = time.Now()
	if err := c.nodes[0].DigestSync(); err != nil {
		return cs, fmt.Errorf("digest sync: %w", err)
	}
	cs.digest = time.Since(t)
	t = time.Now()
	if err := g.Leave(); err != nil {
		return cs, err
	}
	cs.leave = time.Since(t)
	after := transferTotals(append([]*cluster.Node{g}, c.nodes...)...)
	cs.preBytes = after.BytesPrecompress - before.BytesPrecompress
	cs.wireBytes = after.BytesWire - before.BytesWire
	cs.retries = after.StreamsResumed + after.FrameRetries + after.FallbackKeys -
		(before.StreamsResumed + before.FrameRetries + before.FallbackKeys)
	return cs, nil
}

// cycler runs rebalance cycles back to back until stopped.
type cycler struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	cycles []cycleStats
	err    error
}

func startCycler(c *benchCluster) *cycler {
	cy := &cycler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(cy.done)
		for {
			select {
			case <-cy.stop:
				return
			default:
			}
			cs, err := c.cycle()
			cy.mu.Lock()
			if err != nil {
				cy.err = err
				cy.mu.Unlock()
				return
			}
			cy.cycles = append(cy.cycles, cs)
			cy.mu.Unlock()
		}
	}()
	return cy
}

// mark returns how many cycles have completed so far.
func (cy *cycler) mark() int {
	cy.mu.Lock()
	defer cy.mu.Unlock()
	return len(cy.cycles)
}

// finish stops the cycler after its current cycle and returns every
// completed cycle.
func (cy *cycler) finish() ([]cycleStats, error) {
	close(cy.stop)
	<-cy.done
	return cy.cycles, cy.err
}
