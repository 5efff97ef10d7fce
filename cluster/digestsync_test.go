package cluster

// Tests for digest anti-entropy (digestsync.go), the cluster's one
// repair round: the ELD1/ELK1 payload codecs, the map-triple fence, and
// the headline properties — a CONVERGED cluster pays one DSUM per peer
// per round regardless of key count, a diverged replica is repaired by
// shipping only the keys that actually differ, strays are handed off,
// and a peer whose map differs is healed by the same round.

import (
	"encoding/base64"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"exaloglog/internal/compress"
	"exaloglog/server"
)

func TestDigestVectorRoundTrip(t *testing.T) {
	v := make([]uint64, server.NumShards)
	for i := range v {
		v[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	got, err := decodeDigestVector(encodeDigestVector(v))
	if err != nil {
		t.Fatalf("decode of a valid vector: %v", err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("shard %d digest changed: %#x → %#x", i, v[i], got[i])
		}
	}
	// A vector with the wrong shard count must be rejected: comparing
	// digests across different shard geometries is meaningless.
	if _, err := decodeDigestVector(encodeDigestVector(v[:10])); err == nil {
		t.Error("10-shard vector accepted")
	}
	if _, err := decodeDigestVector("not base64!!"); err == nil {
		t.Error("non-base64 vector accepted")
	}
	if _, err := decodeDigestVector(""); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestKeyDigestsRoundTrip(t *testing.T) {
	kds := []server.KeyDigest{
		{Key: "a", Digest: 1},
		{Key: "visits:2026-08-07", Digest: 0xdeadbeefcafef00d},
		{Key: strings.Repeat("k", 500), Digest: 0},
	}
	got, err := decodeKeyDigests(encodeKeyDigests(kds))
	if err != nil {
		t.Fatalf("decode of valid key digests: %v", err)
	}
	if len(got) != len(kds) {
		t.Fatalf("decoded %d key digests, want %d", len(got), len(kds))
	}
	for _, kd := range kds {
		if got[kd.Key] != kd.Digest {
			t.Errorf("key %q digest %#x, want %#x", kd.Key, got[kd.Key], kd.Digest)
		}
	}
	// The empty set is a valid reply (a shard can be all strays).
	if got, err := decodeKeyDigests(encodeKeyDigests(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty key digests: got %v, %v", got, err)
	}
	if _, err := decodeKeyDigests("###"); err == nil {
		t.Error("non-base64 key digests accepted")
	}
}

// TestDigestHandlersEpochFence: DSUM and DKEYS refuse a requester whose
// map ordering triple differs — in epoch, or in version alone — with
// -STALE carrying the responder's triple: digests computed under
// different ownership views cover different key populations, so
// comparing them would manufacture phantom divergence. DKEYS accepts
// each shard index once, so one request line cannot grow the reply
// without bound.
func TestDigestHandlersEpochFence(t *testing.T) {
	h := newHarness(t, 2, 2)
	m := h.node("n1").currentMap()
	fence := strings.Fields(m.Triple())
	for _, wrong := range [][]string{
		{fmt.Sprintf("e=%d", m.Epoch+7), fmt.Sprintf("v=%d", m.Version), fence[2]},
		{fmt.Sprintf("e=%d", m.Epoch), fmt.Sprintf("v=%d", m.Version+1), fence[2]}, // same epoch, other version
		{fmt.Sprintf("e=%d", m.Epoch), fmt.Sprintf("v=%d", m.Version), "c=zz"},     // same epoch+version, other coordinator
	} {
		for _, args := range [][]string{
			append([]string{"CLUSTER", "DSUM", "n2"}, wrong...),
			append(append([]string{"CLUSTER", "DKEYS", "n2"}, wrong...), "0,1"),
		} {
			_, err := h.do("n1", args...)
			if err == nil || err.Error() != "STALE "+m.Triple() {
				t.Errorf("%v: err = %v, want -STALE %s", args[1:], err, m.Triple())
			}
		}
	}
	// The right triple answers with a payload.
	reply, err := h.do("n1", append([]string{"CLUSTER", "DSUM", "n2"}, fence...)...)
	if err != nil {
		t.Fatalf("DSUM at the current triple: %v", err)
	}
	if _, err := decodeDigestVector(reply); err != nil {
		t.Fatalf("DSUM reply did not decode: %v", err)
	}
	dkeys := func(id, shards string) error {
		_, err := h.do("n1", append(append([]string{"CLUSTER", "DKEYS", id}, fence...), shards)...)
		return err
	}
	if err := dkeys("n2", "0,5,127"); err != nil {
		t.Errorf("DKEYS of distinct shards: %v", err)
	}
	all := make([]string, server.NumShards)
	for i := range all {
		all[i] = fmt.Sprint(i)
	}
	if err := dkeys("n2", strings.Join(all, ",")); err != nil {
		t.Errorf("DKEYS of every shard once: %v", err)
	}
	for _, bad := range []struct{ what, id, shards string }{
		{"invalid requester ID", "bad id", "0"},
		{"out-of-range shard index", "n2", "999"},
		{"repeated shard index", "n2", "3,1,3"},
		{"200 copies of one shard", "n2", strings.TrimSuffix(strings.Repeat("0,", 200), ",")},
		{"more indices than shards", "n2", strings.Join(all, ",") + ",0"},
	} {
		if err := dkeys(bad.id, bad.shards); err == nil || strings.Contains(err.Error(), "STALE") {
			t.Errorf("%s: err = %v, want -ERR", bad.what, err)
		}
	}
	// The pre-triple epoch-only form and malformed triples are errors,
	// not fence refusals.
	for _, args := range [][]string{
		{"CLUSTER", "DSUM", "n2", fence[0]},
		{"CLUSTER", "DSUM", "n2", fence[0], "v=x", fence[2]},
		{"CLUSTER", "DSUM", "n2", fence[1], fence[0], fence[2]},
		{"CLUSTER", "DSUM", "n2", fence[0], fence[1], "c=a=b"},
	} {
		if _, err := h.do("n1", args...); err == nil || strings.Contains(err.Error(), "STALE") {
			t.Errorf("%v: err = %v, want -ERR", args[2:], err)
		}
	}
}

// TestDigestSyncConvergedMessageCount: on a converged cluster a full
// digest round from one node is ONE DSUM message per peer — O(members),
// not O(keys) — with no key-digest fetches and no data movement at all.
func TestDigestSyncConvergedMessageCount(t *testing.T) {
	const keys = 300
	h := newHarness(t, 3, 2)
	for k := 0; k < keys; k++ {
		if _, err := h.node("n1").Add(fmt.Sprintf("dg-%d", k), "x", "y"); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("digest sync on a converged cluster: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if got, want := counts["DSUM"], 2; got != want {
		t.Errorf("converged round sent %d DSUM messages, want %d (one per peer)", got, want)
	}
	for _, verb := range []string{"DKEYS", "XFER", "ABSORB", "MLADD", "MAP", "SETMAP"} {
		if counts[verb] != 0 {
			t.Errorf("converged round sent %d %s messages, want 0", counts[verb], verb)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total >= keys/10 {
		t.Errorf("converged round cost %d messages for %d keys — not O(members)", total, keys)
	}
	if _, repaired := h.node("n1").DigestSyncStats(); repaired != 0 {
		t.Errorf("converged round repaired %d keys, want 0", repaired)
	}
}

// TestDigestSyncRepairsDivergence: keys silently lost by one replica
// (a rolled-back disk, a dropped replication write) are found by digest
// comparison and re-shipped — and ONLY the divergent keys move, over
// one batched stream, not a full re-push of the keyspace.
func TestDigestSyncRepairsDivergence(t *testing.T) {
	const keys = 60
	lost := map[string]bool{"dv-3": true, "dv-17": true, "dv-29": true, "dv-41": true, "dv-55": true}
	h := newHarnessCfg(t, 2, 2, &TransferConfig{MinStreamKeys: 1})
	ref := make(map[string]float64, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dv-%d", k)
		if _, err := h.node("n1").Add(key, "a", "b", "c"); err != nil {
			t.Fatal(err)
		}
		ref[key] = mustCount(t, h.node("n1"), key)
	}
	for key := range lost {
		if !h.node("n2").Store().Delete(key) {
			t.Fatalf("fixture: %s was not on n2", key)
		}
	}

	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("digest sync over diverged replicas: %v", err)
	}

	// Every lost key is back on n2 with its full count.
	for key := range lost {
		if _, ok := h.node("n2").Store().Dump(key); !ok {
			t.Errorf("%s still missing from n2 after digest repair", key)
		}
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dv-%d", k)
		// n2's LOCAL copy must carry the full count — the cluster-wide
		// union would mask a hole by borrowing n1's replica.
		got, err := h.node("n2").Store().Count(key)
		if err != nil {
			t.Errorf("n2: count %s after repair: %v", key, err)
			continue
		}
		if got != ref[key] {
			t.Errorf("n2: local count %s = %v after repair, want %v", key, got, ref[key])
		}
	}
	if _, repaired := h.node("n1").DigestSyncStats(); repaired != uint64(len(lost)) {
		t.Errorf("repaired counter = %d, want %d", repaired, len(lost))
	}

	mu.Lock()
	dsum, dkeys := counts["DSUM"], counts["DKEYS"]
	mu.Unlock()
	if dsum != 1 || dkeys != 1 {
		t.Errorf("round sent %d DSUM + %d DKEYS, want 1 + 1 (narrow, then fetch once)", dsum, dkeys)
	}

	// The round after the repair is silent again: digests agree.
	mu.Lock()
	clear(counts)
	mu.Unlock()
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["DKEYS"] != 0 || counts["XFER"] != 0 {
		t.Errorf("post-repair round still moved data: %v", counts)
	}
}

// TestDigestSyncBidirectional: divergence in BOTH directions (each
// replica holds elements the other missed) converges after each side
// runs its own push-only round — merge is idempotent and monotone, so
// the union wins on both.
func TestDigestSyncBidirectional(t *testing.T) {
	h := newHarnessCfg(t, 2, 2, &TransferConfig{MinStreamKeys: 1})
	if _, err := h.node("n1").Add("bi", "shared"); err != nil {
		t.Fatal(err)
	}
	// Local-only writes, bypassing replication: each store diverges.
	if _, err := h.node("n1").Store().Add("bi", "only-on-n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.node("n2").Store().Add("bi", "only-on-n2"); err != nil {
		t.Fatal(err)
	}
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatal(err)
	}
	if err := h.node("n2").DigestSync(); err != nil {
		t.Fatal(err)
	}
	c1, err := h.node("n1").Store().Count("bi")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.node("n2").Store().Count("bi")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("replicas still disagree after both rounds: n1=%v n2=%v", c1, c2)
	}
	if int64(c1+0.5) != 3 {
		t.Errorf("union count = %v, want ≈3 — a divergent element was lost", c1)
	}
}

// TestDigestSyncChaosUnderLoad: delete a slice of keys from one replica
// of a 3-node cluster, then let EVERY node run a digest round (the
// deployment shape: each node's ticker fires independently). The
// cluster must converge to the union, with a total message budget far
// below one message per key — the whole point of digest anti-entropy.
func TestDigestSyncChaosUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("digest chaos skipped in -short")
	}
	const keys = 500
	h := newHarnessCfg(t, 3, 2, &TransferConfig{MinStreamKeys: 4})
	ref := make(map[string]float64, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dc-%d", k)
		if _, err := h.node("n1").Add(key, "a", "b"); err != nil {
			t.Fatal(err)
		}
		ref[key] = mustCount(t, h.node("n1"), key)
	}
	// n2 loses every 9th key it holds (it only replicates ~2/3 of the
	// keyspace at replicas=2, so track which deletions landed).
	var droppedKeys []string
	for k := 0; k < keys; k += 9 {
		key := fmt.Sprintf("dc-%d", k)
		if h.node("n2").Store().Delete(key) {
			droppedKeys = append(droppedKeys, key)
		}
	}
	if len(droppedKeys) == 0 {
		t.Fatal("fixture: n2 held none of the dropped keys")
	}

	var mu sync.Mutex
	total := 0
	h.setIntercept(func(id, addr string, parts []string) error {
		mu.Lock()
		total++
		mu.Unlock()
		return nil
	})
	defer h.setIntercept(nil)

	for _, n := range h.running() {
		if err := n.DigestSync(); err != nil {
			t.Fatalf("%s digest round: %v", n.ID(), err)
		}
	}

	for _, key := range droppedKeys {
		got, err := h.node("n2").Store().Count(key)
		if err != nil {
			t.Errorf("n2: %s still missing after chaos repair: %v", key, err)
			continue
		}
		if got != ref[key] {
			t.Errorf("n2: local count %s = %v after chaos repair, want %v", key, got, ref[key])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// 3 nodes × 2 peers: 6 DSUM, a handful of DKEYS and stream messages
	// for the diverged shards. A per-key protocol would need ≥500.
	if total >= keys/2 {
		t.Errorf("full-cluster repair cost %d messages for %d keys — digest rounds should be far below O(keys)", total, keys)
	}
	var rounds, repaired uint64
	for _, n := range h.running() {
		r, k := n.DigestSyncStats()
		rounds += r
		repaired += k
	}
	if rounds == 0 {
		t.Error("no node recorded a digest round")
	}
	if repaired < uint64(len(droppedKeys)) {
		t.Errorf("cluster repaired %d keys, want ≥ %d (every dropped key re-shipped)", repaired, len(droppedKeys))
	}
}

// countVerbs counts every outbound CLUSTER <verb> of every node of h
// until the test ends; the returned func snapshots the counts.
func countVerbs(t *testing.T, h *harness) func() map[string]int {
	var mu sync.Mutex
	counts := map[string]int{}
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 2 && strings.EqualFold(parts[0], "CLUSTER") {
			mu.Lock()
			counts[strings.ToUpper(parts[1])]++
			mu.Unlock()
		}
		return nil
	})
	t.Cleanup(func() { h.setIntercept(nil) })
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(counts)
	}
}

// TestDigestSyncDrainsStray: a key written straight into a non-owner's
// store is invisible to the co-owned digests, so the round's stray
// drain alone must hand it off — one DigestSync on the non-owner pushes
// it to its owners and drops it locally, and the cluster count equals a
// single-node reference.
func TestDigestSyncDrainsStray(t *testing.T) {
	h := newHarness(t, 3, 2)
	n3 := h.node("n3")
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("stray-%d", i); !slices.Contains(n3.Map().ownerIDs(k), "n3") {
			key = k
		}
	}
	els := []string{"a", "b", "c", "d", "e"}
	ref, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Add(key, els...); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Count(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n3.Store().Add(key, els...); err != nil {
		t.Fatal(err)
	}

	if err := n3.DigestSync(); err != nil {
		t.Fatalf("digest round on the non-owner: %v", err)
	}
	if _, ok := n3.Store().Dump(key); ok {
		t.Errorf("non-owner n3 still holds stray %s after the round", key)
	}
	for _, id := range n3.Map().ownerIDs(key) {
		if got, err := h.node(id).Store().Count(key); err != nil || got != want {
			t.Errorf("owner %s: local count %s = %v, %v; want %v", id, key, got, err, want)
		}
	}
	for _, n := range h.running() {
		if got := mustCount(t, n, key); got != want {
			t.Errorf("%s: cluster count %s = %v, want single-node %v", n.ID(), key, got, want)
		}
	}
}

// laggard boots n1..n3 (replicas 2) holding a few keys, then joins x1
// while n3 is partitioned, so n3 keeps the pre-join map. The partition
// is healed before it returns and no gossip round has run: only a
// digest round can heal n3. It returns the keys' reference counts.
func laggard(t *testing.T) (*harness, map[string]float64) {
	h := newHarness(t, 3, 2)
	ref := map[string]float64{}
	for k := 0; k < 12; k++ {
		key := fmt.Sprintf("lag-%d", k)
		if _, err := h.node("n1").Add(key, "a", "b", fmt.Sprint(k)); err != nil {
			t.Fatal(err)
		}
		ref[key] = mustCount(t, h.node("n1"), key)
	}
	h.partition("n3", true)
	h.start("x1", "127.0.0.1:0")
	h.do("n1", "CLUSTER", "JOIN", "x1", h.addr("x1")) // the broadcast to n3 fails: that is the point
	h.partition("n3", false)
	if !h.node("n1").Map().Has("x1") || h.node("n3").Map().Has("x1") {
		t.Fatal("fixture: the join must land on the majority and miss n3")
	}
	return h, ref
}

// assertHealed checks that n3 holds n1's map and counts every key right.
func assertHealed(t *testing.T, h *harness, ref map[string]float64) {
	t.Helper()
	if got, want := h.node("n3").Map().Encode(), h.node("n1").Map().Encode(); got != want {
		t.Fatalf("n3 still holds %s, cluster %s", got, want)
	}
	for key, want := range ref {
		if got := mustCount(t, h.node("n3"), key); got != want {
			t.Errorf("n3: count %s = %v, want %v", key, got, want)
		}
	}
}

// TestDigestSyncPullsNewerMap: the laggard's own round heals it. Its
// DSUM to an up-to-date peer is refused with -STALE and the peer's
// newer triple, and the round pulls that one peer's map — one MAP, no
// SETMAP — with no gossip tick.
func TestDigestSyncPullsNewerMap(t *testing.T) {
	h, ref := laggard(t)
	counts := countVerbs(t, h)
	if err := h.node("n3").DigestSync(); err != nil {
		t.Fatalf("laggard's round: %v", err)
	}
	c := counts()
	if c["MAP"] != 1 || c["SETMAP"] != 0 {
		t.Errorf("pull heal sent %d MAP + %d SETMAP, want 1 + 0", c["MAP"], c["SETMAP"])
	}
	assertHealed(t, h, ref)
}

// TestDigestSyncPushesMapToLaggard: an up-to-date peer's round heals
// the laggard. The laggard refuses the DSUM with its older triple, and
// the round sends it one SETMAP — no MAP pull — with no gossip tick.
func TestDigestSyncPushesMapToLaggard(t *testing.T) {
	h, ref := laggard(t)
	counts := countVerbs(t, h)
	if err := h.node("n1").DigestSync(); err != nil {
		t.Fatalf("up-to-date peer's round: %v", err)
	}
	c := counts()
	if c["SETMAP"] != 1 || c["MAP"] != 0 {
		t.Errorf("push heal sent %d SETMAP + %d MAP, want 1 + 0", c["SETMAP"], c["MAP"])
	}
	assertHealed(t, h, ref)
}

// TestGossipReplyWithoutPayloadPullsOnce: a gossip reply whose triple
// is newer but carries no map (the payload did not fit the size cap)
// costs exactly one inline CLUSTER MAP pull from the replier; a reply
// with an equal triple costs none.
func TestGossipReplyWithoutPayloadPullsOnce(t *testing.T) {
	h, ref := laggard(t)
	n1 := h.node("n1").Map()
	reply := func(m *Map) *digest {
		return &digest{Sender: "n1", Epoch: m.Epoch, Version: m.Version, Coordinator: m.Coordinator}
	}
	counts := countVerbs(t, h)
	h.node("n3").handleGossipReply(h.addr("n1"), reply(n1))
	if c := counts(); c["MAP"] != 1 || c["SETMAP"] != 0 {
		t.Errorf("payload-less newer reply cost %d MAP + %d SETMAP, want 1 + 0", c["MAP"], c["SETMAP"])
	}
	assertHealed(t, h, ref)
	h.node("n3").handleGossipReply(h.addr("n1"), reply(n1))
	if c := counts(); c["MAP"] != 1 {
		t.Errorf("a reply with an equal triple pulled the map again (%d MAP in total)", c["MAP"])
	}
}

// FuzzDigestDecode: hostile DSUM/DKEYS reply bodies must fail with an
// error, never panic or over-allocate; whatever decodes must re-encode
// to the same content. The fuzzer's bytes are tried raw, base64-wrapped
// (reaching the payload parser through the codec's raw pass-through)
// and base64-wrapped after codec compression.
func FuzzDigestDecode(f *testing.F) {
	v := make([]uint64, server.NumShards)
	v[3] = 0xfeed
	for _, body := range []string{
		encodeDigestVector(v),
		encodeKeyDigests([]server.KeyDigest{{Key: "a", Digest: 1}, {Key: "bb", Digest: 2}}),
		encodeKeyDigests(nil),
	} {
		raw, _ := base64.StdEncoding.DecodeString(body)
		f.Add(raw)
	}
	f.Add([]byte("ELD1\x80\x01"))
	f.Add([]byte("ELK1\xff\xff\xff\xff\x0f\x01a"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, body := range []string{
			string(data),
			base64.StdEncoding.EncodeToString(data),
			base64.StdEncoding.EncodeToString(compress.EncodeBlob(data)),
		} {
			if vec, err := decodeDigestVector(body); err == nil {
				if len(vec) != server.NumShards {
					t.Fatalf("accepted a %d-shard vector", len(vec))
				}
				again, err := decodeDigestVector(encodeDigestVector(vec))
				if err != nil || !slices.Equal(again, vec) {
					t.Fatalf("vector re-decode: %v", err)
				}
			}
			if kds, err := decodeKeyDigests(body); err == nil {
				list := make([]server.KeyDigest, 0, len(kds))
				for k, d := range kds {
					if k == "" {
						t.Fatal("accepted an empty key")
					}
					list = append(list, server.KeyDigest{Key: k, Digest: d})
				}
				again, err := decodeKeyDigests(encodeKeyDigests(list))
				if err != nil || !maps.Equal(again, kds) {
					t.Fatalf("key digests re-decode: %v", err)
				}
			}
		}
	})
}
