// Command perfbench is the repository's serving benchmark. It boots an
// in-process 3-node cluster (replicas=2, ELL(2,20) at p=12, elld's
// defaults), preloads a keyspace, drives one workload against it from
// the same process and checks every answer against reference sketches.
// Each workload has a closed-loop phase (two connections, each sending
// its next batch after the reply) and an open-loop phase at a fixed
// rate, where each op is timed from when it was due. With --trace 1 it
// instead times each layer by replaying a sample of the generated ops
// into that layer's functions. The last line of standard output is one
// JSON object with the metrics BENCHMARK.json names.
//
//	bash perfbench/run.sh --rates ingest=2000,count=200,mixed=2000,rebalance=600 \
//	    --workload all --seed 1 --seconds 10 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics of the JSON result; they match
// BENCHMARK.json. Every workload reports each of them.
var endToEnd = []string{
	"setup_s", "throughput_ops_s", "op_p50_us", "est_rel_error", "resident_bytes_per_key",
}

var perLayer = []string{
	"loadgen.lag_us.p50", "loadgen.trace_overhead",
	"client.exec_us.p50",
	"server.store_add_ns.p50", "server.store_add_ns.p99",
	"server.store_dump_us.p50", "server.store_dump_us.p99",
	"server.wire_bytes_per_op",
	"cluster.node_add_us.p50", "cluster.node_add_us.p99",
	"cluster.node_count_us.p50", "cluster.node_union_us.p50", "cluster.node_wcount_us.p50",
	"cluster.groups_per_batch", "cluster.redirects",
	"cluster.join_s.p50", "cluster.leave_s.p50", "cluster.digest_sync_ms.p50",
	"cluster.xfer_wire_bytes", "cluster.xfer_ratio", "cluster.xfer_retries",
	"compress.encode_us.p50", "compress.decode_us.p50", "compress.ratio",
	"core.add_ns.p50", "core.add_ns.p99",
	"core.frombinary_us.p50", "core.frombinary_us.p99",
	"core.merge_us.p50", "core.merge_us.p99",
	"core.estimate_us.p50", "core.estimate_us.p99",
	"window.add_ns.p50", "window.add_ns.p99", "window.estimate_us.p50",
	"core.estimate_allocs", "core.merge_allocs",
	"compress.encode_allocs", "compress.decode_allocs",
	"server.store_add_allocs", "server.store_dump_allocs",
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: ingest, count, mixed, rebalance, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	ratesFlag := flag.String("rates", "", "open-loop ops/s per workload, as name=rate,... (required)")
	flag.Parse()

	rates, err := parseRates(*ratesFlag)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	var run []*workload
	if err == nil {
		if *name == "all" {
			run = workloads
		} else if w := findWorkload(*name); w != nil {
			run = []*workload{w}
		} else {
			err = fmt.Errorf("unknown --workload %q", *name)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("perfbench: seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var reports []*report
	for _, w := range run {
		rate, ok := rates[w.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: --rates has no rate for %s\n", w.name)
			return 2
		}
		d := time.Duration(*seconds) * time.Second
		var r *report
		if *trace == 1 {
			r, err = runTraced(w, *seed, d, rate)
		} else {
			r, err = runWorkload(w, *seed, d, rate)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(os.Stdout)
		reports = append(reports, r)
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	line, err := result(reports, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range reports {
		if len(r.mismatches) > 0 {
			return 1
		}
	}
	return 0
}

func parseRates(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, v, ok := strings.Cut(part, "=")
		rate, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || rate <= 0 || findWorkload(name) == nil {
			return nil, fmt.Errorf("bad --rates entry %q (want workload=ops/s)", part)
		}
		out[name] = rate
	}
	return out, nil
}

// setupRuns is how often a run boots and preloads the cluster to time
// setup: at least minSetups times and for at least minSetupTime, so a
// setup of a few milliseconds still yields a steady median.
const (
	minSetups    = 3
	maxSetups    = 50
	minSetupTime = time.Second
)

// runWorkload is one untraced run: end-to-end metrics and the gate.
func runWorkload(w *workload, seed int64, d time.Duration, rate float64) (*report, error) {
	r := &report{workload: w.name}
	var setups samples
	var c *benchCluster
	began := time.Now()
	for len(setups) < minSetups || (time.Since(began) < minSetupTime && len(setups) < maxSetups) {
		if c != nil {
			c.close()
			runtime.GC()
		}
		t := time.Now()
		var err error
		if c, err = setup(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer c.close()
	r.timing("setup_s", "", "s", setups)

	ph, cycles, err := drive(w, c, seed, d, rate, false)
	if err != nil {
		return nil, err
	}
	r.add("throughput_ops_s", "ops/s", float64(ph.closed.completed)/ph.closed.elapsed.Seconds(), ph.closed.completed)
	r.timing("op_p50_us", "op_p99_us", "us", ph.open.lat[w.main])
	for k := kind(0); k < numKinds; k++ {
		r.timing(kindNames[k]+"_p50_us", kindNames[k]+"_p99_us", "us", ph.open.lat[k])
	}
	if w.rebalance {
		var cyc samples
		for _, cs := range cycles {
			cyc = append(cyc, (cs.join + cs.leave).Seconds())
		}
		r.timing("rebalance_s", "", "s", cyc)
	}
	r.attempted, r.failed = ph.total()
	r.notes = failures(ph.closed, ph.open)

	// The reference is built only now, so it is not on the heap the
	// measured phases collect.
	ref := newReference()
	ref.addPreload(w, seed)
	ref.addStreams(ph.streams)
	mismatches, rms, err := ref.gate(c)
	if err != nil {
		return nil, err
	}
	r.mismatches = mismatches
	r.add("est_rel_error", "1", rms, len(ref.truth)-len(ref.tried))
	r.add("resident_bytes_per_key", "B", residentBytesPerKey(c), 0)
	return r, nil
}

// failures renders per-verb outcome lines: a batch lost to a transport
// error fails every op in it, and a -MOVED the smart client ran out of
// redirect budget on counts as refused.
func failures(ts ...*tally) []string {
	var lines []string
	for k := kind(0); k < numKinds; k++ {
		var attempted, failed, refused int
		for _, t := range ts {
			attempted, failed, refused = attempted+t.attempted[k], failed+t.failed[k], refused+t.refused[k]
		}
		if attempted > 0 {
			lines = append(lines, fmt.Sprintf("ops %s: attempted=%d failed=%d refused=%d", kindNames[k], attempted, failed, refused))
		}
	}
	return lines
}

// closedOps sizes a closed-loop stream: the open-loop rate is a few
// times below the closed-loop throughput, so eight times the rate
// covers the phase; a faster program wraps around and re-sends, which
// adds tolerate (sketch inserts are idempotent).
func closedOps(w *workload, rate float64, d time.Duration) int {
	return int(8*rate*d.Seconds())/conns + w.depth
}

// phases is what drive observed.
type phases struct {
	closed, open *tally
	streams      []*stream // every stream sent, for the gate
	clientMoved  uint64    // -MOVED redirects the smart clients followed
}

func (p *phases) total() (attempted, failed int) {
	a1, f1 := p.closed.total()
	a2, f2 := p.open.total()
	return a1 + a2, f1 + f2
}

// drive runs w's closed-loop phase and then its open-loop phase at
// rate, splitting d between them. A rebalance workload cycles a 4th
// node throughout; the returned cycles are those of the open-loop
// phase, which ran under fixed-rate foreground traffic.
func drive(w *workload, c *benchCluster, seed int64, d time.Duration, rate float64, traced bool) (*phases, []cycleStats, error) {
	clients, err := dialClients(w, c)
	if err != nil {
		return nil, nil, err
	}
	ph := &phases{}
	defer closeClients(clients)
	defer func() {
		for _, cl := range clients {
			if h, ok := cl.(*hopClient); ok {
				ph.clientMoved += h.cc.Stats().Moved
			}
		}
	}()
	closedD := time.Duration(float64(d) * w.closed)
	openD := d - closedD
	openOps := int(rate * openD.Seconds() / conns)
	var closedStreams, openStreams []*stream
	for ci := 0; ci < conns; ci++ {
		closedStreams = append(closedStreams, newStream(w, seed, fmt.Sprintf("c%d", ci), closedOps(w, rate, closedD)))
		openStreams = append(openStreams, newStream(w, seed, fmt.Sprintf("o%d", ci), openOps))
	}
	ph.streams = append(closedStreams, openStreams...)

	var cy *cycler
	if w.rebalance {
		cy = startCycler(c)
	}
	// Each phase starts from a fresh GC cycle, so whether a collection
	// falls inside it does not vary from run to run.
	runtime.GC()
	ph.closed = closedLoop(clients, closedStreams, w.depth, closedD, traced)
	mark := 0
	if cy != nil {
		mark = cy.mark()
	}
	runtime.GC()
	ph.open = openLoop(clients, openStreams, rate, traced)
	var cycles []cycleStats
	if cy != nil {
		all, err := cy.finish()
		if err != nil {
			return nil, nil, fmt.Errorf("rebalance cycle: %w", err)
		}
		cycles = all[mark:]
	}
	return ph, cycles, nil
}
