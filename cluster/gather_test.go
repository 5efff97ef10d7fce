package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/internal/core"
	"exaloglog/server"
	"exaloglog/window"
)

// Digest-read tests: whether a key's owners agree or not, the cluster
// answer must exactly equal the estimate of a single-node merge of
// every owner's live copy.

// mergedCopies is the single-node reference: every owner's live copy
// of every key, merged into one sketch (nil if no copy exists).
func mergedCopies(t *testing.T, h *harness, keys ...string) *core.Sketch {
	t.Helper()
	var acc *core.Sketch
	for _, key := range keys {
		for _, o := range h.node("n1").Map().Owners(key) {
			blob, ok := h.node(o.ID).Store().Dump(key)
			if !ok {
				continue
			}
			sk, err := core.FromBinary(blob)
			if err != nil {
				t.Fatal(err)
			}
			if acc == nil {
				acc = sk
			} else if err := acc.Merge(sk); err != nil {
				t.Fatal(err)
			}
		}
	}
	return acc
}

func referenceCount(t *testing.T, h *harness, keys ...string) float64 {
	t.Helper()
	if acc := mergedCopies(t, h, keys...); acc != nil {
		return acc.Estimate()
	}
	return 0
}

// assertCountsExact counts keys through every node (owners and
// non-owners coordinate differently) and compares with the reference.
func assertCountsExact(t *testing.T, h *harness, keys ...string) {
	t.Helper()
	want := referenceCount(t, h, keys...)
	for _, n := range h.running() {
		if got := mustCount(t, n, keys...); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: count %v = %v, want %v (merge of every copy)", n.ID(), keys, got, want)
		}
	}
}

// ownerIDs returns key's owner IDs under n1's map.
func ownerIDs(h *harness, key string) []string {
	var ids []string
	for _, o := range h.node("n1").Map().Owners(key) {
		ids = append(ids, o.ID)
	}
	return ids
}

// nonOwner returns a node that does not own key.
func nonOwner(t *testing.T, h *harness, key string) *Node {
	t.Helper()
	own := ownerIDs(h, key)
	for _, n := range h.running() {
		if !slices.Contains(own, n.ID()) {
			return n
		}
	}
	t.Fatalf("every node owns %s", key)
	return nil
}

func addElems(t *testing.T, n *Node, key, prefix string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := n.Add(key, fmt.Sprintf("%s-%d", prefix, i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDigestReadCopiesDiffer(t *testing.T) {
	h := newHarness(t, 3, 2)
	addElems(t, h.node("n1"), "dr-restore", "a", 300)
	assertCountsExact(t, h, "dr-restore")

	// One owner is given a different sketch outright.
	other := core.MustNew(testConfig())
	for i := 0; i < 500; i++ {
		other.AddString(fmt.Sprintf("b-%d", i))
	}
	blob, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	own := ownerIDs(h, "dr-restore")
	if err := h.node(own[1]).Store().Restore("dr-restore", blob); err != nil {
		t.Fatal(err)
	}
	assertCountsExact(t, h, "dr-restore")

	// A write made while one owner is partitioned lands on the other.
	addElems(t, h.node("n1"), "dr-part", "c", 50)
	own = ownerIDs(h, "dr-part")
	h.partition(own[0], true)
	if _, err := h.node(own[1]).Add("dr-part", "only-on-one-owner"); err == nil {
		t.Fatal("add with an owner partitioned reported success")
	}
	h.partition(own[0], false)
	a, _ := h.node(own[0]).Store().Dump("dr-part")
	b, _ := h.node(own[1]).Store().Dump("dr-part")
	if string(a) == string(b) {
		t.Fatal("fixture: the partitioned write reached both owners")
	}
	assertCountsExact(t, h, "dr-part")
	if got, want := mustCount(t, h.node("n1"), "dr-part"), referenceCount(t, h, "dr-part"); got != want {
		t.Errorf("count after partitioned write = %v, want %v", got, want)
	}
}

func TestDigestReadMissingOnOneOwner(t *testing.T) {
	h := newHarness(t, 3, 2)
	addElems(t, h.node("n1"), "dr-miss", "a", 200)
	own := ownerIDs(h, "dr-miss")
	if !h.node(own[0]).Store().Delete("dr-miss") {
		t.Fatal("fixture: key not on its first owner")
	}
	assertCountsExact(t, h, "dr-miss")
	if mustCount(t, h.node("n1"), "dr-miss") == 0 {
		t.Error("a key held by one owner counted 0")
	}
}

func TestDigestReadExpiredOnOneOwner(t *testing.T) {
	h := newHarness(t, 3, 2)
	addElems(t, h.node("n1"), "dr-exp", "a", 200)
	own := ownerIDs(h, "dr-exp")
	// A deadline already past on one owner only: its copy is lazily
	// expired by the first read that touches it.
	if !h.node(own[1]).Store().ExpireAt("dr-exp", 1) {
		t.Fatal("fixture: key not on its second owner")
	}
	assertCountsExact(t, h, "dr-exp")
	if _, ok := h.node(own[1]).Store().Dump("dr-exp"); ok {
		t.Error("expired copy still readable")
	}
	if mustCount(t, h.node("n1"), "dr-exp") == 0 {
		t.Error("a key live on one owner counted 0")
	}
}

func TestDigestReadWrongType(t *testing.T) {
	h := newHarness(t, 3, 2)
	const ts = int64(1_750_000_000_000)
	if _, err := h.node("n1").WindowAdd("dr-win", ts, "x", "y"); err != nil {
		t.Fatal(err)
	}
	addElems(t, h.node("n1"), "dr-plain", "a", 10)
	for _, n := range h.running() {
		if _, err := n.Count("dr-win"); !errors.Is(err, server.ErrWrongType) {
			t.Errorf("%s: PFCOUNT of a window key: %v, want WRONGTYPE", n.ID(), err)
		}
		if _, err := n.Count("dr-plain", "dr-win"); !errors.Is(err, server.ErrWrongType) {
			t.Errorf("%s: union with a window key: %v, want WRONGTYPE", n.ID(), err)
		}
		if _, err := n.WindowCount("dr-plain", time.Second, 0); !errors.Is(err, server.ErrWrongType) {
			t.Errorf("%s: WCOUNT of a plain key: %v, want WRONGTYPE", n.ID(), err)
		}
	}
	// Still WRONGTYPE when the owners disagree (round 2 path).
	own := ownerIDs(h, "dr-win")
	if _, err := h.node(own[0]).Store().WindowAdd("dr-win", time.UnixMilli(ts), "z"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.node("n1").Count("dr-win"); !errors.Is(err, server.ErrWrongType) {
		t.Errorf("PFCOUNT of a divergent window key: %v, want WRONGTYPE", err)
	}
}

func TestDigestReadWindowCopiesDiffer(t *testing.T) {
	h := newHarness(t, 3, 2)
	const ts = int64(1_750_000_000_000)
	for i := 0; i < 40; i++ {
		if _, err := h.node("n1").WindowAdd("dr-ring", ts+int64(i%5)*1000, fmt.Sprintf("e-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	own := ownerIDs(h, "dr-ring")
	if _, err := h.node(own[1]).Store().WindowAdd("dr-ring", time.UnixMilli(ts+2000), "extra-1", "extra-2"); err != nil {
		t.Fatal(err)
	}
	ref, err := window.New(testConfig(), time.Second, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range own {
		blob, _ := h.node(id).Store().Dump("dr-ring")
		c, err := window.FromBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Estimate(ref.Latest(), 10*time.Second)
	for _, n := range h.running() {
		got, err := n.WindowCount("dr-ring", 10*time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: WCOUNT of divergent rings = %v, want %v", n.ID(), got, want)
		}
	}
}

func TestDigestReadPeerDownInRoundOne(t *testing.T) {
	h := newHarness(t, 3, 2)
	addElems(t, h.node("n1"), "dr-down", "a", 20)
	coord := nonOwner(t, h, "dr-down")
	down := ownerIDs(h, "dr-down")[1]
	h.partition(down, true)
	defer h.partition(down, false)
	for _, keys := range [][]string{{"dr-down"}, {"dr-down", "dr-other"}} {
		_, err := coord.Count(keys...)
		if err == nil {
			t.Fatalf("count %v with an owner down succeeded", keys)
		}
		if !strings.Contains(err.Error(), "cluster: dump from "+down+": harness: network partition") {
			t.Errorf("count %v with %s down: %v, want the owner's transport error", keys, down, err)
		}
	}
}

func TestDigestReadUnionMixesAgreedAndDivergent(t *testing.T) {
	h := newHarness(t, 3, 2)
	keys := []string{"du-0", "du-1", "du-2", "du-3", "du-4"}
	for i, key := range keys {
		addElems(t, h.node("n1"), key, fmt.Sprintf("k%d", i), 100*(i+1))
	}
	// du-1 diverges by a write on one owner, du-3 by a lost copy.
	own1 := ownerIDs(h, "du-1")
	if _, err := h.node(own1[0]).Store().Add("du-1", "stray-1", "stray-2"); err != nil {
		t.Fatal(err)
	}
	own3 := ownerIDs(h, "du-3")
	h.node(own3[1]).Store().Delete("du-3")

	for _, n := range h.running() {
		before := n.StatsCounters()
		want := referenceCount(t, h, keys...)
		if got := mustCount(t, n, keys...); got != want {
			t.Errorf("%s: union = %v, want %v", n.ID(), got, want)
		}
		after := n.StatsCounters()
		if d := after.GatherAgreedKeys - before.GatherAgreedKeys; d != 3 {
			t.Errorf("%s: union agreed on %d keys, want 3", n.ID(), d)
		}
		if d := after.GatherDivergentKeys - before.GatherDivergentKeys; d != 2 {
			t.Errorf("%s: union found %d divergent keys, want 2", n.ID(), d)
		}
		// One copy per agreed key, every live copy of a divergent key:
		// 3 + 2 (du-1) + 1 (du-3).
		if d := after.GatherBlobsFetched - before.GatherBlobsFetched; d != 6 {
			t.Errorf("%s: union fetched %d blobs, want 6", n.ID(), d)
		}
	}
}

// TestDigestReadCounters: each digest-read counter moves, and CLUSTER
// STATS and /metrics report it.
func TestDigestReadCounters(t *testing.T) {
	h := newHarness(t, 3, 2)
	addElems(t, h.node("n1"), "dc-a", "a", 100)
	addElems(t, h.node("n1"), "dc-b", "b", 100)
	coord := nonOwner(t, h, "dc-a")
	c0 := coord.StatsCounters()

	// An agreed single key: answered from the owners' estimates.
	mustCount(t, coord, "dc-a")
	c1 := coord.StatsCounters()
	if c1.GatherAgreedKeys != c0.GatherAgreedKeys+1 || c1.GatherDivergentKeys != c0.GatherDivergentKeys ||
		c1.GatherBlobsFetched != c0.GatherBlobsFetched {
		t.Errorf("agreed single count moved counters %+v → %+v, want agreed+1 only", c0, c1)
	}

	// An agreed union: one copy per key.
	mustCount(t, coord, "dc-a", "dc-b")
	c2 := coord.StatsCounters()
	if c2.GatherAgreedKeys != c1.GatherAgreedKeys+2 || c2.GatherBlobsFetched != c1.GatherBlobsFetched+2 {
		t.Errorf("agreed union moved counters %+v → %+v, want agreed+2, blobs+2", c1, c2)
	}

	// A divergent single key: every owner's copy.
	if _, err := h.node(ownerIDs(h, "dc-a")[0]).Store().Add("dc-a", "stray"); err != nil {
		t.Fatal(err)
	}
	mustCount(t, coord, "dc-a")
	c3 := coord.StatsCounters()
	if c3.GatherDivergentKeys != c2.GatherDivergentKeys+1 || c3.GatherBlobsFetched != c2.GatherBlobsFetched+2 {
		t.Errorf("divergent count moved counters %+v → %+v, want divergent+1, blobs+2", c2, c3)
	}

	row, err := h.do(coord.ID(), "CLUSTER", "STATS")
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []string{
		fmt.Sprintf("gather_agreed_keys=%d", c3.GatherAgreedKeys),
		fmt.Sprintf("gather_divergent_keys=%d", c3.GatherDivergentKeys),
		fmt.Sprintf("gather_blobs_fetched=%d", c3.GatherBlobsFetched),
	} {
		if !strings.Contains(strings.Split(row, "; ")[0], kv) {
			t.Errorf("CLUSTER STATS row lacks %s: %q", kv, row)
		}
	}
	var sb strings.Builder
	coord.WriteMetrics(&sb)
	for _, line := range []string{
		fmt.Sprintf("ell_cluster_gather_agreed_keys_total %d\n", c3.GatherAgreedKeys),
		fmt.Sprintf("ell_cluster_gather_divergent_keys_total %d\n", c3.GatherDivergentKeys),
		fmt.Sprintf("ell_cluster_gather_blobs_fetched_total %d\n", c3.GatherBlobsFetched),
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestDigestReadAgreedSkipsSketchTransfer: on a converged cluster a
// single-key count moves PEEK digests only, and a union PEEKD digests
// and one DUMPZ per key at most — never a copy per owner, and no
// owner-side estimate.
func TestDigestReadAgreedSkipsSketchTransfer(t *testing.T) {
	h := newHarness(t, 3, 2)
	keys := []string{"ds-0", "ds-1", "ds-2", "ds-3"}
	for _, key := range keys {
		addElems(t, h.node("n1"), key, key, 50)
	}
	var mu sync.Mutex
	verbs := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		verb := strings.ToUpper(parts[0])
		if verb == "CLUSTER" && len(parts) > 1 {
			verb += " " + strings.ToUpper(parts[1])
		}
		mu.Lock()
		verbs[verb]++
		mu.Unlock()
		return nil
	})
	defer h.setIntercept(nil)
	coord := nonOwner(t, h, "ds-0")
	mustCount(t, coord, "ds-0")
	mu.Lock()
	if verbs["DUMPZ"] != 0 || verbs["CLUSTER PEEK"] != 2 {
		t.Errorf("agreed single-key count sent %v, want 2 CLUSTER PEEK and no DUMPZ", verbs)
	}
	clear(verbs)
	mu.Unlock()
	// Fresh writes leave every owner's estimate cache cold; the union
	// must not warm it.
	for _, key := range keys {
		addElems(t, h.node("n1"), key, key+"-more", 5)
	}
	misses := func() (sum uint64) {
		for _, n := range h.running() {
			_, m := n.Store().CacheStats()
			sum += m
		}
		return sum
	}
	before := misses()
	mustCount(t, coord, keys...)
	if d := misses() - before; d != 0 {
		t.Errorf("agreed union ran %d owner-side estimates, want 0", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if verbs["DUMPZ"] > len(keys) {
		t.Errorf("agreed %d-key union sent %d DUMPZ, want at most one per key", len(keys), verbs["DUMPZ"])
	}
	if verbs["CLUSTER PEEK"] != 0 || verbs["CLUSTER PEEKD"] == 0 {
		t.Errorf("agreed union sent %v, want CLUSTER PEEKD and no CLUSTER PEEK", verbs)
	}
}

// TestDigestReadSaturated: a fully saturated sketch estimates +Inf.
// Its owners report that estimate over PEEK, and every read of it —
// single-key count, a union, and a merge — still matches the
// single-node merge of every copy.
func TestDigestReadSaturated(t *testing.T) {
	h := newHarness(t, 3, 2)
	cfg := testConfig()
	sat := core.MustNew(cfg)
	for i := 0; i < cfg.NumRegisters(); i++ {
		for k := uint64(1); k <= cfg.MaxUpdateValue(); k++ {
			sat.AddPair(i, k)
		}
	}
	if est := sat.Estimate(); !math.IsInf(est, 1) {
		t.Fatalf("fixture: saturated sketch estimates %v, want +Inf", est)
	}
	blob, err := sat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ownerIDs(h, "sat") {
		if err := h.node(id).Store().Restore("sat", blob); err != nil {
			t.Fatal(err)
		}
	}
	addElems(t, h.node("n1"), "sat-other", "o", 100)

	assertCountsExact(t, h, "sat")
	assertCountsExact(t, h, "sat", "sat-other")
	coord := nonOwner(t, h, "sat")
	c0 := coord.StatsCounters()
	if got := mustCount(t, coord, "sat"); !math.IsInf(got, 1) {
		t.Errorf("count of a saturated key = %v, want +Inf", got)
	}
	if c1 := coord.StatsCounters(); c1.GatherAgreedKeys != c0.GatherAgreedKeys+1 {
		t.Errorf("saturated key not answered by agreement: %+v → %+v", c0, c1)
	}

	want := mergedCopies(t, h, "sat", "sat-other")
	if err := coord.MergeKeys("sat-dest", "sat", "sat-other"); err != nil {
		t.Fatalf("MergeKeys with a saturated source: %v", err)
	}
	for _, id := range ownerIDs(h, "sat-dest") {
		got, ok := h.node(id).Store().Dump("sat-dest")
		wantBlob, _ := want.MarshalBinary()
		if !ok || string(got) != string(wantBlob) {
			t.Errorf("%s: merged sat-dest differs from the single-node merge", id)
		}
	}
	assertCountsExact(t, h, "sat-dest")
}

// TestPeekWireHostile: the PEEK/PEEKD request and reply parsers bound
// the key count and reject malformed tokens with an error, never a
// panic.
func TestPeekWireHostile(t *testing.T) {
	plain := string(appendPeekToken(nil, peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: 0xfeedface, Estimate: 1234.5}}, true))
	digest := string(appendPeekToken(nil, peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: 0xfeedface}}, false))
	win := string(appendPeekToken(nil, peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: 7, Window: true}}, true))
	nan := "p" + strings.Repeat("0", 16) + "7ff8000000000001"
	inf := "p" + strings.Repeat("0", 16) + "7ff0000000000000"
	neg := "p" + strings.Repeat("0", 16) + "bff0000000000000"
	for _, tc := range []struct {
		name  string
		body  string
		nkeys int
		ok    bool
	}{
		{"plain", plain, 1, true},
		{"window", win, 1, true},
		{"missing", "-", 1, true},
		{"mixed", plain + " - " + win, 3, true},
		{"infinite estimate", inf, 1, true},
		{"digest-only plain", digest, 1, false},
		{"too few tokens", plain, 2, false},
		{"too many tokens", plain + " " + plain, 1, false},
		{"empty body", "", 1, false},
		{"double space", plain + "  " + plain, 2, false},
		{"zero keys", "", 0, false},
		{"negative keys", "-", -1, false},
		{"keys over the cap", "-", maxPeekKeys + 1, false},
		{"oversized body", strings.Repeat("-", 100), 1, false},
		{"unknown kind", "x" + plain[1:], 1, false},
		{"short plain", plain[:len(plain)-1], 1, false},
		{"long window", win + "0", 1, false},
		{"non-hex digest", "w" + strings.Repeat("g", 16), 1, false},
		{"signed digest", "w+" + strings.Repeat("0", 15), 1, false},
		{"non-hex estimate", plain[:17] + strings.Repeat("z", 16), 1, false},
		{"NaN estimate", nan, 1, false},
		{"minus infinity", "p" + strings.Repeat("0", 16) + "fff0000000000000", 1, false},
		{"negative estimate", neg, 1, false},
		{"dash with tail", "--", 1, false},
	} {
		got, err := parsePeekReply(tc.body, tc.nkeys, true)
		if (err == nil) != tc.ok {
			t.Errorf("%s: parsePeekReply(%q, %d) err = %v, want ok=%v", tc.name, tc.body, tc.nkeys, err, tc.ok)
			continue
		}
		if tc.ok && len(got) != tc.nkeys {
			t.Errorf("%s: %d answers for %d keys", tc.name, len(got), tc.nkeys)
		}
	}
	got, err := parsePeekReply(plain+" - "+win, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Digest != 0xfeedface || got[0].Estimate != 1234.5 || got[0].Window || !got[0].present ||
		got[1].present || !got[2].Window || got[2].Digest != 7 {
		t.Errorf("round trip decoded %+v", got)
	}
	if got, err := parsePeekReply(inf, 1, true); err != nil || !math.IsInf(got[0].Estimate, 1) {
		t.Errorf("+Inf estimate decoded as %+v, %v", got, err)
	}

	// PEEKD: the plain token carries the digest only, and PEEK's plain
	// form is malformed there.
	got, err = parsePeekReply(digest+" - "+win, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Digest != 0xfeedface || got[0].Estimate != 0 || got[0].Window || !got[0].present ||
		got[1].present || !got[2].Window || got[2].Digest != 7 {
		t.Errorf("PEEKD round trip decoded %+v", got)
	}
	for _, body := range []string{plain, digest + "0", "p" + strings.Repeat("x", 16)} {
		if _, err := parsePeekReply(body, 1, false); err == nil {
			t.Errorf("PEEKD reply %q accepted", body)
		}
	}

	for _, n := range []int{0, maxPeekKeys + 1} {
		if err := checkPeekRequest(make([]string, n)); err == nil {
			t.Errorf("PEEK request of %d keys accepted", n)
		}
	}
	if err := checkPeekRequest(make([]string, maxPeekKeys)); err != nil {
		t.Errorf("PEEK request of %d keys rejected: %v", maxPeekKeys, err)
	}

	// Over the wire: a bad request is one -ERR line and the connection
	// stays aligned.
	h := newHarness(t, 1, 1)
	for _, verb := range []string{"PEEK", "PEEKD"} {
		if _, err := h.do("n1", "CLUSTER", verb); err == nil {
			t.Errorf("CLUSTER %s with no keys accepted", verb)
		}
	}
	c, err := server.Dial(h.addr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pl := c.Pipeline()
	pl.Do("CLUSTER", "PEEK")
	pl.Do("PING")
	res, err := pl.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[1].Err != nil || res[1].Value != "PONG" {
		t.Errorf("pipelined bad PEEK then PING = %+v, want one error then PONG", res)
	}
}

// FuzzPeekDecode: hostile PEEK/PEEKD replies and requests never panic,
// a reply either fails or yields exactly one answer per key, and every
// accepted reply re-encodes to itself.
func FuzzPeekDecode(f *testing.F) {
	f.Add("-", 1, true)
	f.Add(string(appendPeekToken(nil, peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: 1, Estimate: 2}}, true)), 1, true)
	f.Add("w0123456789abcdef -", 2, true)
	f.Add("p"+strings.Repeat("f", 32), 1, true)
	f.Add("p0123456789abcdef - w0123456789abcdef", 3, false)
	f.Add("", 0, false)
	f.Fuzz(func(t *testing.T, body string, nkeys int, est bool) {
		got, err := parsePeekReply(body, nkeys, est)
		if rerr := checkPeekRequest(strings.Fields(body)); rerr == nil && len(strings.Fields(body)) > maxPeekKeys {
			t.Fatalf("request of %d keys accepted", len(strings.Fields(body)))
		}
		if err != nil {
			return
		}
		if len(got) != nkeys {
			t.Fatalf("%d answers for %d keys", len(got), nkeys)
		}
		var b []byte
		for i, a := range got {
			if i > 0 {
				b = append(b, ' ')
			}
			if a.present && !a.Window && (math.IsNaN(a.Estimate) || a.Estimate < 0 || !est && a.Estimate != 0) {
				t.Fatalf("accepted estimate %v", a.Estimate)
			}
			b = appendPeekToken(b, a, est)
		}
		if !strings.EqualFold(string(b), body) {
			t.Fatalf("re-encoded %q as %q", body, b)
		}
	})
}

func TestDigestReadNoKeys(t *testing.T) {
	h := newHarness(t, 2, 2)
	if got := mustCount(t, h.node("n1")); got != 0 {
		t.Errorf("count of no keys = %v, want 0", got)
	}
}
