package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"exaloglog/internal/compress"
	"exaloglog/server"
)

// Digest anti-entropy is the cluster's one repair loop. Instead of
// probing replicas key by key, a node summarizes the replicated state it
// shares with one peer as 128 per-shard digests (one XOR-fold of per-key
// content digests each, see server/digest.go) and ships only the keys
// of shards that disagree. On a converged cluster a full round is one
// DSUM message per peer — O(members) messages carrying O(shards) bytes
// — no matter how many keys the cluster holds.
//
// Wire protocol (CLUSTER subcommands on the ordinary line protocol):
//
//	CLUSTER DSUM <peerID> e=<e> v=<v> c=<c>            → =<b64 digest vector> | -STALE e=<e> v=<v> c=<c>
//	CLUSTER DKEYS <peerID> e=<e> v=<v> c=<c> <shards>  → =<b64 key digests>   | -STALE e=<e> v=<v> c=<c>
//
// <peerID> is the REQUESTER's node ID: the responder folds only keys
// co-owned by both nodes under its current map, which is what makes
// the vectors comparable — each side digests the same key population.
// Both sides insist on the same map ordering triple (Map.Triple), since
// comparing digests across different ownership views would ship keys
// to nodes that no longer own them. <shards> is a comma-separated list
// of distinct shard indices whose folded digests disagreed.
//
// The fence doubles as the map heal: -STALE carries the responder's
// triple, and the requester pulls the responder's map (one CLUSTER MAP)
// when it is ahead, or sends it one SETMAP when it is behind. Only
// peers whose maps disagree pay for that exchange.
//
// Repair is push-only and merge-based: each node ships the divergent
// keys IT holds over the streaming transfer channel (one batched XFER
// stream, or per-key ABSORB below the stream threshold) and trusts the
// peer's own round for the reverse direction. Merging is idempotent
// and monotone, so concurrent repairs from both sides converge exactly
// like every other data movement in the cluster.
const (
	digestVecMagic  = "ELD1"
	digestKeysMagic = "ELK1"

	// maxDigestPayload caps a decoded digest payload: generous for
	// 65536 max-length keys, far below anything allocatable by a
	// hostile length claim.
	maxDigestPayload = 1 << 24
)

// encodeDigestVector packs per-shard digests as the ELD1 payload and
// returns it base64-wrapped (codec-compressed when that wins; a vector
// from a mostly-empty store is almost all zero bytes).
func encodeDigestVector(v []uint64) string {
	buf := make([]byte, 0, len(digestVecMagic)+binary.MaxVarintLen64+8*len(v))
	buf = append(buf, digestVecMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, d := range v {
		buf = binary.LittleEndian.AppendUint64(buf, d)
	}
	return base64.StdEncoding.EncodeToString(compress.EncodeBlob(buf))
}

func decodeDigestVector(body string) ([]uint64, error) {
	raw, err := base64.StdEncoding.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest vector: %w", err)
	}
	buf, err := compress.DecodeBlob(raw, maxDigestPayload)
	if err != nil {
		return nil, fmt.Errorf("cluster: digest vector: %w", err)
	}
	if len(buf) < len(digestVecMagic) || string(buf[:len(digestVecMagic)]) != digestVecMagic {
		return nil, errors.New("cluster: digest vector: bad magic")
	}
	rest := buf[len(digestVecMagic):]
	count, w := binary.Uvarint(rest)
	if w <= 0 || count != uint64(server.NumShards) || uint64(len(rest[w:])) != 8*count {
		return nil, errors.New("cluster: digest vector: bad shard count")
	}
	rest = rest[w:]
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return out, nil
}

// encodeKeyDigests packs per-key digests as the ELK1 payload,
// base64-wrapped and codec-compressed when that wins.
func encodeKeyDigests(kds []server.KeyDigest) string {
	size := len(digestKeysMagic) + binary.MaxVarintLen64
	for _, kd := range kds {
		size += binary.MaxVarintLen64 + len(kd.Key) + 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, digestKeysMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(kds)))
	for _, kd := range kds {
		buf = binary.AppendUvarint(buf, uint64(len(kd.Key)))
		buf = append(buf, kd.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, kd.Digest)
	}
	return base64.StdEncoding.EncodeToString(compress.EncodeBlob(buf))
}

func decodeKeyDigests(body string) (map[string]uint64, error) {
	raw, err := base64.StdEncoding.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: key digests: %w", err)
	}
	buf, err := compress.DecodeBlob(raw, maxDigestPayload)
	if err != nil {
		return nil, fmt.Errorf("cluster: key digests: %w", err)
	}
	if len(buf) < len(digestKeysMagic) || string(buf[:len(digestKeysMagic)]) != digestKeysMagic {
		return nil, errors.New("cluster: key digests: bad magic")
	}
	rest := buf[len(digestKeysMagic):]
	count, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, errors.New("cluster: key digests: truncated count")
	}
	rest = rest[w:]
	// Every record needs at least 9 bytes (1-byte key + digest): cap the
	// claimed count by the bytes present before trusting it.
	if count > uint64(len(rest))/9 {
		return nil, fmt.Errorf("cluster: key digests: implausible count %d for %d payload bytes", count, len(rest))
	}
	out := make(map[string]uint64, int(min(count, 4096)))
	for i := uint64(0); i < count; i++ {
		klen, w := binary.Uvarint(rest)
		if w <= 0 || klen == 0 || klen > uint64(len(rest[w:])) {
			return nil, errors.New("cluster: key digests: bad key length")
		}
		rest = rest[w:]
		key := string(rest[:klen])
		rest = rest[klen:]
		if len(rest) < 8 {
			return nil, errors.New("cluster: key digests: truncated digest")
		}
		out[key] = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: key digests: %d trailing bytes", len(rest))
	}
	return out, nil
}

// coOwnedFilter accepts the keys whose owner set under m contains both
// this node and peerID — the key population a digest exchange between
// the two summarizes.
func (n *Node) coOwnedFilter(m *Map, peerID string) func(string) bool {
	return func(key string) bool {
		ids := m.ownerIDs(key)
		return slices.Contains(ids, n.id) && slices.Contains(ids, peerID)
	}
}

// parseDigestFence validates the requester ID and e= v= c= tokens
// shared by DSUM and DKEYS, and enforces the map fence.
func (n *Node) parseDigestFence(rest []string) (peerID string, m *Map, errReply string) {
	if len(rest) < 4 {
		return "", nil, "-ERR needs a requester ID and e=<epoch> v=<version> c=<coordinator>"
	}
	if !validID(rest[0]) {
		return "", nil, fmt.Sprintf("-ERR invalid requester ID %q", rest[0])
	}
	epoch, version, coord, err := parseTriple(rest[1:4])
	if err != nil {
		return "", nil, "-ERR " + err.Error()
	}
	m = n.currentMap()
	// Strict both-ways fence on the whole ordering triple (unlike XFER's
	// one-sided epoch check): digests computed under different maps cover
	// different key populations, so comparing them would only
	// manufacture phantom divergence. Equal-epoch maps can still differ
	// (a claim that missed quorum), hence version and coordinator too.
	if m.Epoch != epoch || m.Version != version || m.Coordinator != coord {
		return "", nil, "-STALE " + m.Triple()
	}
	return rest[0], m, ""
}

// handleDigestSum serves CLUSTER DSUM (see the file comment).
func (n *Node) handleDigestSum(rest []string) string {
	peerID, m, errReply := n.parseDigestFence(rest)
	if errReply != "" {
		return errReply
	}
	if len(rest) != 4 {
		return "-ERR CLUSTER DSUM needs a requester ID and e=<epoch> v=<version> c=<coordinator>"
	}
	return "=" + encodeDigestVector(n.store.ShardDigests(n.coOwnedFilter(m, peerID)))
}

// handleDigestKeys serves CLUSTER DKEYS (see the file comment).
func (n *Node) handleDigestKeys(rest []string) string {
	peerID, m, errReply := n.parseDigestFence(rest)
	if errReply != "" {
		return errReply
	}
	if len(rest) != 5 {
		return "-ERR CLUSTER DKEYS needs a requester ID, e=<epoch> v=<version> c=<coordinator> and a shard list"
	}
	// Each index appends a whole shard's key digests to the reply, so a
	// repeated index would grow it without bound: accept each shard once.
	if strings.Count(rest[4], ",") >= server.NumShards {
		return fmt.Sprintf("-ERR CLUSTER DKEYS lists more than %d shards", server.NumShards)
	}
	filter := n.coOwnedFilter(m, peerID)
	var seen [server.NumShards]bool
	var kds []server.KeyDigest
	for _, tok := range strings.Split(rest[4], ",") {
		shard, err := strconv.Atoi(tok)
		if err != nil || shard < 0 || shard >= server.NumShards {
			return fmt.Sprintf("-ERR bad shard index %q", tok)
		}
		if seen[shard] {
			return fmt.Sprintf("-ERR duplicate shard index %d", shard)
		}
		seen[shard] = true
		kds = append(kds, n.store.ShardKeyDigests(shard, filter)...)
	}
	return "=" + encodeKeyDigests(kds)
}

// DigestSync runs one anti-entropy round, the cluster's only one. It
// first drains strays — local keys this node does not own under its
// map, which the co-owned digests below never cover — to their owners.
// Then, against every peer, it exchanges per-shard digest vectors,
// narrows disagreeing shards to per-key digests, and ships the
// divergent keys this node holds over the streaming transfer channel.
// A peer whose map differs answers -STALE with its triple: the round
// pulls that peer's map when it is ahead, or sends it one SETMAP when
// it is behind, and leaves its digest exchange to the next round.
// Returns every failure joined; unreachable peers just miss the round.
func (n *Node) DigestSync() error {
	var errs []error
	if err := n.drainStrays(); err != nil {
		errs = append(errs, fmt.Errorf("cluster: digest sync: drain strays: %w", err))
	}
	for _, mem := range n.currentMap().Members() {
		if mem.ID == n.id {
			continue
		}
		// Re-read the map per peer: a fence pull earlier in the round
		// may have installed a newer one.
		if err := n.digestSyncPeer(n.currentMap(), mem); err != nil {
			errs = append(errs, fmt.Errorf("cluster: digest sync with %s: %w", mem.ID, err))
		}
	}
	return errors.Join(errs...)
}

// healFence answers a -STALE digest refusal from the peer at addr: pull
// its map when its triple is ahead of ours, push ours with one SETMAP
// when it is behind. Any other error passes through unchanged.
func (n *Node) healFence(addr string, err error) error {
	body, ok := strings.CutPrefix(err.Error(), "STALE ")
	if !server.IsReplyErr(err) || !ok {
		return err
	}
	epoch, version, coord, perr := parseTriple(strings.Fields(body))
	if perr != nil {
		return perr
	}
	cur := n.currentMap()
	switch {
	case cur.SupersededByTriple(epoch, version, coord):
		m, err := pullMap(n.peers.to(addr))
		if err != nil {
			return err
		}
		return n.installAndRebalance(m)
	case tripleBehind(cur, epoch, version, coord):
		return n.pushMap(addr, cur)
	}
	return nil // our own map moved since the request: they now agree
}

// digestSyncPeer is one peer's round of DigestSync.
func (n *Node) digestSyncPeer(m *Map, peer Member) error {
	filter := n.coOwnedFilter(m, peer.ID)
	local := n.store.ShardDigests(filter)
	fence := append([]string{n.id}, strings.Fields(m.Triple())...)
	n.digestRounds.Add(1)
	body, err := n.peers.do(peer.Addr, append([]string{"CLUSTER", "DSUM"}, fence...)...)
	if err != nil {
		return n.healFence(peer.Addr, err)
	}
	remote, err := decodeDigestVector(body)
	if err != nil {
		return err
	}
	var diff []string
	diffIdx := make(map[int]bool)
	for i := range local {
		if local[i] != remote[i] {
			diff = append(diff, strconv.Itoa(i))
			diffIdx[i] = true
		}
	}
	if len(diff) == 0 {
		return nil // converged: the whole round cost one message
	}
	body, err = n.peers.do(peer.Addr, append(append([]string{"CLUSTER", "DKEYS"}, fence...), strings.Join(diff, ","))...)
	if err != nil {
		return n.healFence(peer.Addr, err)
	}
	theirs, err := decodeKeyDigests(body)
	if err != nil {
		return err
	}
	// Ship every key this node holds in a disagreeing shard whose digest
	// the peer lacks or contradicts. Keys only THEY hold are their
	// round's job — push-only repair keeps both sides independent.
	var items []server.KeyBlob
	for shard := range diffIdx {
		for _, kd := range n.store.ShardKeyDigests(shard, filter) {
			if theirs[kd.Key] == kd.Digest {
				continue
			}
			if tb, ok := n.store.DumpTagged(kd.Key); ok {
				items = append(items, server.KeyBlob{Key: kd.Key, Blob: tb.Blob, Deadline: tb.Deadline})
			}
		}
	}
	if len(items) == 0 {
		return nil
	}
	cfg := n.transferConfig()
	var failed map[string]error
	if len(items) >= cfg.MinStreamKeys {
		failed = n.streamTo(peer.Addr, m.Epoch, items)
	} else {
		failed = n.absorbEach(peer.Addr, items)
	}
	n.digestRepairs.Add(uint64(len(items) - len(failed)))
	if len(failed) == 0 {
		return nil
	}
	errs := make([]error, 0, len(failed))
	for key, ferr := range failed {
		if errors.Is(ferr, errXferStale) {
			return nil // map moved mid-round: the next round re-plans
		}
		errs = append(errs, fmt.Errorf("repair %q: %w", key, ferr))
	}
	return errors.Join(errs...)
}

// DigestSyncStats reports the cumulative digest anti-entropy counters:
// rounds is peer-rounds attempted (DSUM exchanges initiated), repaired
// is divergent keys successfully shipped.
func (n *Node) DigestSyncStats() (rounds, repaired uint64) {
	return n.digestRounds.Load(), n.digestRepairs.Load()
}
