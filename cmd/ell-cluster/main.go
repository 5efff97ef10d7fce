// Command ell-cluster administers a sketch cluster (see the cluster
// package) through any member node.
//
// Usage:
//
//	ell-cluster [-addr 127.0.0.1:7700] <command> [args]
//
// Commands:
//
//	info                  show the contacted node's view of the cluster
//	map                   print the cluster map (epoch, version, coordinator, replicas, members)
//	health                show the contacted node's failure-detector view (alive/suspect per
//	                      member) plus every member's cluster-layer counters
//	stats [all]           per-verb serving stats (calls, errors, bytes, p50/p99 latency) and
//	                      cluster counters of the contacted node — or of every member with "all"
//	join <id> <addr>      add node <id> at <addr> to the cluster (epoch-fenced)
//	leave <id>            remove node <id> (survivors re-replicate its keys)
//	sync                  one anti-entropy round on the contacted node: drain stray keys,
//	                      heal peers whose map differs, re-ship diverged replicas
//	add <key> <el>...     PFADD routed to the key's owners
//	count <key>...        cluster-wide union distinct count
//	wadd <key> <ts> <el>...  WADD routed to the key's owners (ts in unix ms)
//	wcount <key> <window> [ts]  windowed distinct count, slot-wise merged
//	winfo <key>           merged ring info (geometry, latest, dropped)
//	keys                  list all keys cluster-wide
//	ping                  check liveness of the contacted node
//
// Example — grow a cluster from one seed and count through any node:
//
//	elld -node-id n1 -addr :7700 &
//	elld -node-id n2 -addr :7701 -join 127.0.0.1:7700 &
//	ell-cluster -addr 127.0.0.1:7701 add visits alice bob
//	ell-cluster -addr 127.0.0.1:7700 count visits
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"exaloglog/cluster"
	"exaloglog/server"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ell-cluster [-addr host:port] info|map|health|stats [all]|join <id> <addr>|leave <id>|sync|add <key> <el>...|count <key>...|wadd <key> <ts> <el>...|wcount <key> <window> [ts]|winfo <key>|keys|ping")
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "address of any cluster node")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	c, err := server.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	cmd, rest := strings.ToLower(args[0]), args[1:]
	switch cmd {
	case "info":
		reply := mustDo(c, "CLUSTER", "INFO")
		fmt.Println(strings.ReplaceAll(reply, " ", "\n"))
	case "map":
		reply := mustDo(c, "CLUSTER", "MAP")
		m, err := cluster.DecodeMap(strings.Fields(reply))
		if err != nil {
			log.Fatalf("malformed map reply %q: %v", reply, err)
		}
		coord := m.Coordinator
		if coord == "" {
			coord = "(none)"
		}
		fmt.Printf("epoch       %d\nversion     %d\ncoordinator %s\nreplicas    %d\n",
			m.Epoch, m.Version, coord, m.Replicas)
		for _, mem := range m.Members() {
			fmt.Printf("node        %-12s %s\n", mem.ID, mem.Addr)
		}
	case "health":
		reply := mustDo(c, "CLUSTER", "HEALTH")
		for _, tok := range strings.Fields(reply) {
			// Member rows are "<id>=<state>,k=v,...": the id cannot
			// contain '=' (validID), so the first '=' splits cleanly.
			id, fields, ok := strings.Cut(tok, "=")
			if !ok {
				fmt.Println(tok)
				continue
			}
			fmt.Printf("%-12s %s\n", id, strings.ReplaceAll(fields, ",", " "))
		}
		// Append every member's cluster-layer counters (best-effort: an
		// unreachable member shows an err= row, the detector rows above
		// still stand). These polls run through each node's peer pool,
		// so watching health is itself liveness evidence.
		if reply, err := c.Do("CLUSTER", "STATS", "ALL"); err == nil {
			fmt.Println()
			fmt.Println("per-node stats:")
			for _, row := range strings.Split(reply, "; ") {
				if strings.HasPrefix(row, "node=") {
					fmt.Println(row)
				}
			}
		}
	case "stats":
		parts := []string{"CLUSTER", "STATS"}
		switch {
		case len(rest) == 1 && strings.EqualFold(rest[0], "all"):
			parts = append(parts, "ALL")
		case len(rest) != 0:
			usage()
		}
		// The wire reply is one folded line (newlines → "; ", the
		// protocol's one-reply-one-line rule); unfold for humans.
		for _, row := range strings.Split(mustDo(c, parts...), "; ") {
			fmt.Println(row)
			if line := compressionSummary(row); line != "" {
				fmt.Println(line)
			}
		}
	case "join":
		if len(rest) != 2 {
			usage()
		}
		printMutation(mustDo(c, "CLUSTER", "JOIN", rest[0], rest[1]))
	case "leave":
		if len(rest) != 1 {
			usage()
		}
		printMutation(mustDo(c, "CLUSTER", "LEAVE", rest[0]))
	case "sync":
		fmt.Println(mustDo(c, "CLUSTER", "SYNC"))
	case "add":
		if len(rest) < 2 {
			usage()
		}
		changed, err := c.PFAdd(rest[0], rest[1:]...)
		if c2 := redialMoved(err); c2 != nil {
			changed, err = c2.PFAdd(rest[0], rest[1:]...)
			c2.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("changed=%v\n", changed)
	case "count":
		if len(rest) < 1 {
			usage()
		}
		n, err := c.PFCount(rest...)
		if c2 := redialMoved(err); c2 != nil {
			n, err = c2.PFCount(rest...)
			c2.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(n)
	case "wadd":
		if len(rest) < 3 {
			usage()
		}
		reply := mustDo(c, append([]string{"WADD"}, rest...)...)
		fmt.Printf("accepted=%s\n", reply)
	case "wcount":
		if len(rest) != 2 && len(rest) != 3 {
			usage()
		}
		fmt.Println(mustDo(c, append([]string{"WCOUNT"}, rest...)...))
	case "winfo":
		if len(rest) != 1 {
			usage()
		}
		for _, tok := range strings.Fields(mustDo(c, "WINFO", rest[0])) {
			fmt.Println(tok)
		}
	case "keys":
		keys, err := c.Keys()
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range keys {
			fmt.Println(k)
		}
	case "ping":
		if err := c.Ping(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("PONG")
	default:
		usage()
	}
}

// printMutation renders a JOIN/LEAVE reply. A mutation can lose to a
// concurrent one under the epoch order; the reply then starts with
// SUPERSEDED and carries the winning map's (epoch, version,
// coordinator) so the operator sees WHAT won instead of a silent no-op.
// compressionSummary derives the transfer codec's achieved reduction
// from a node's cluster-counter row: precompress bytes vs bytes that
// actually hit the wire. Returns "" until the node has framed at least
// one compressed transfer (both counters zero), or for non-counter
// rows.
func compressionSummary(row string) string {
	if !strings.HasPrefix(row, "node=") {
		return ""
	}
	vals := make(map[string]uint64)
	for _, f := range strings.Fields(row) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				vals[k] = n
			}
		}
	}
	pre, wire := vals["xfer_bytes_precompress"], vals["xfer_bytes_wire"]
	if pre == 0 || wire == 0 {
		return ""
	}
	return fmt.Sprintf("  xfer compression: %d -> %d bytes (%.2fx)",
		pre, wire, float64(pre)/float64(wire))
}

func printMutation(reply string) {
	if rest, ok := strings.CutPrefix(reply, "SUPERSEDED"); ok {
		fmt.Printf("superseded: a concurrent membership change won (%s); inspect 'map' and re-issue if still wanted\n",
			strings.TrimSpace(rest))
		os.Exit(1)
	}
	fmt.Println(reply)
}

func mustDo(c *server.Client, parts ...string) string {
	reply, err := c.Do(parts...)
	if c2 := redialMoved(err); c2 != nil {
		reply, err = c2.Do(parts...)
		c2.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
	return reply
}

// redialMoved dials the owner a -MOVED redirect names, or returns nil
// for any other outcome. Strict-routing nodes (elld -strict-routing)
// bounce misrouted single-key data commands instead of forwarding, so
// the CLI follows one redirect — enough against a stable map; a second
// bounce surfaces as the error it is.
func redialMoved(err error) *server.Client {
	mv, ok := server.AsMoved(err)
	if !ok {
		return nil
	}
	c2, derr := server.Dial(mv.Addr)
	if derr != nil {
		log.Fatalf("following MOVED to %s (%s): %v", mv.NodeID, mv.Addr, derr)
	}
	fmt.Fprintf(os.Stderr, "ell-cluster: redirected to owner %s at %s\n", mv.NodeID, mv.Addr)
	return c2
}
