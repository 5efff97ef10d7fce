package cluster

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"exaloglog/internal/compress"
	"exaloglog/internal/core"
	"exaloglog/server"
	"exaloglog/window"
)

// The read scatter-gather is a digest read, as in Dynamo and Cassandra
// (DeCandia et al., SOSP 2007): every owner of every key is still
// consulted, but only content digests travel unless the owners'
// digests disagree. Sketches are idempotent under merge, so merging
// byte-identical replicas changes nothing — one copy of an agreed key
// (or, for a single plain key, the estimate its owners report) is the
// exact answer the all-copies merge would give.
//
// Wire protocol (node-local CLUSTER subcommands):
//
//	CLUSTER PEEK <key>...    → +<token> per key, space-separated, in order
//	CLUSTER PEEKD <key>...   → the same, digests only
//
// with tokens
//
//	-                            missing (absent or expired)
//	p<digest:16 hex><est:16 hex> plain sketch: content digest and the
//	                             bits of its float64 estimate (PEEK)
//	p<digest:16 hex>             plain sketch: content digest (PEEKD)
//	w<digest:16 hex>             windowed value: content digest
//
// Only a single-key count uses the estimate; unions, merges and window
// reads merge copies and send PEEKD, so an owner does not estimate a
// key it has written since its last estimate for nothing. A reader
// that wants one value type reports the other as WRONGTYPE. The digest
// is server.Store.Peek's (key, serialized value) digest.

// maxPeekKeys bounds the keys of one CLUSTER PEEK, request and reply
// alike; a gather over more keys sends several PEEKs in its batch.
const maxPeekKeys = 1024

// peekDigestLen is the length of a digest-only token (w, or PEEKD's p);
// peekTokenLen is the longest token, PEEK's p.
const (
	peekDigestLen = 1 + 16
	peekTokenLen  = peekDigestLen + 16
)

// peekAnswer is one owner's PEEK answer for one key.
type peekAnswer struct {
	present bool
	server.KeyPeek
}

func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

// appendPeekToken encodes one answer; est selects PEEK's plain form
// (with the estimate) over PEEKD's.
func appendPeekToken(b []byte, a peekAnswer, est bool) []byte {
	switch {
	case !a.present:
		return append(b, '-')
	case a.Window:
		return appendHex16(append(b, 'w'), a.Digest)
	case est:
		return appendHex16(appendHex16(append(b, 'p'), a.Digest), math.Float64bits(a.Estimate))
	default:
		return appendHex16(append(b, 'p'), a.Digest)
	}
}

// parsePeekToken decodes one reply token of a PEEK (est set) or PEEKD.
// A malformed digest, a plain token of the other verb's form, or an
// estimate that is NaN or negative is an error. +Inf is a valid
// estimate: the ML estimate of a fully saturated sketch.
func parsePeekToken(tok string, est bool) (peekAnswer, error) {
	bad := func(what string) (peekAnswer, error) {
		if len(tok) > peekTokenLen {
			tok = tok[:peekTokenLen] + "..."
		}
		return peekAnswer{}, fmt.Errorf("cluster: PEEK token %q: malformed %s", tok, what)
	}
	hex := func(s string) (uint64, bool) {
		v, err := strconv.ParseUint(s, 16, 64)
		return v, err == nil
	}
	switch {
	case tok == "-":
		return peekAnswer{}, nil
	case len(tok) == peekDigestLen && tok[0] == 'w':
		d, ok := hex(tok[1:])
		if !ok {
			return bad("digest")
		}
		return peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: d, Window: true}}, nil
	case !est && len(tok) == peekDigestLen && tok[0] == 'p':
		d, ok := hex(tok[1:])
		if !ok {
			return bad("digest")
		}
		return peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: d}}, nil
	case est && len(tok) == peekTokenLen && tok[0] == 'p':
		d, ok := hex(tok[1:peekDigestLen])
		if !ok {
			return bad("digest")
		}
		bits, ok := hex(tok[peekDigestLen:])
		v := math.Float64frombits(bits)
		if !ok || math.IsNaN(v) || v < 0 {
			return bad("estimate")
		}
		return peekAnswer{present: true, KeyPeek: server.KeyPeek{Digest: d, Estimate: v}}, nil
	default:
		return bad("token")
	}
}

// parsePeekReply decodes the reply body of a PEEK (est set) or PEEKD
// of nkeys keys: exactly nkeys tokens, each well formed.
func parsePeekReply(body string, nkeys int, est bool) ([]peekAnswer, error) {
	if nkeys < 1 || nkeys > maxPeekKeys {
		return nil, fmt.Errorf("cluster: PEEK of %d keys (want 1..%d)", nkeys, maxPeekKeys)
	}
	// Bound the split by what nkeys well-formed tokens can occupy, so
	// a hostile reply cannot make the reader allocate beyond it.
	if len(body) > nkeys*(peekTokenLen+1) {
		return nil, fmt.Errorf("cluster: PEEK reply of %d bytes for %d keys", len(body), nkeys)
	}
	toks := strings.Split(body, " ")
	if len(toks) != nkeys {
		return nil, fmt.Errorf("cluster: PEEK replied %d tokens for %d keys", len(toks), nkeys)
	}
	out := make([]peekAnswer, nkeys)
	for i, tok := range toks {
		a, err := parsePeekToken(tok, est)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// checkPeekRequest bounds the key count of a CLUSTER PEEK or PEEKD
// request.
func checkPeekRequest(keys []string) error {
	if len(keys) < 1 || len(keys) > maxPeekKeys {
		return fmt.Errorf("CLUSTER PEEK and PEEKD need 1..%d keys, got %d", maxPeekKeys, len(keys))
	}
	return nil
}

// handlePeek serves CLUSTER PEEK (est set) or PEEKD from the local
// store.
func (n *Node) handlePeek(keys []string, est bool) string {
	if err := checkPeekRequest(keys); err != nil {
		return "-ERR " + err.Error()
	}
	b := make([]byte, 0, 1+len(keys)*(peekTokenLen+1))
	b = append(b, '+')
	for i, key := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		p, ok := n.store.Peek(key, est)
		b = appendPeekToken(b, peekAnswer{present: ok, KeyPeek: p}, est)
	}
	return string(b)
}

// ownerBlob is one owner's serialized copy of one key, as collected by
// gatherOwnerBlobs.
type ownerBlob struct {
	key     string
	ownerID string
	blob    []byte
}

// keyRead is the digest read's verdict on one key.
type keyRead struct {
	key string
	// agreed: every owner gave the same answer — all hold the key with
	// one digest, or none holds it. peek is that answer, attributed to
	// the key's designated owner from.
	agreed bool
	peek   peekAnswer
	from   string
}

// maxGatherBlobBytes caps the decoded size of a single DUMPZ reply. A
// compressed blob can legitimately expand past the line-protocol cap,
// so this mirrors the window package's largest wire ring rather than
// the frame limit.
const maxGatherBlobBytes = 1 << 28

// gatherOwnerBlobs is the one read scatter-gather scaffold, a digest
// read in at most two rounds of one pipelined batch per owner (the
// local owner is read in-process):
//
//   - Round 1 asks every owner for the digests of its keys — PEEK,
//     with estimates, for a count that fetches no copy; PEEKD when
//     fetch is set — and, when fetch is set, asks each key's
//     designated owner (this node if it owns the key, else the key's
//     first owner) for its DUMPZ.
//   - Round 2 runs only for keys whose owners disagree (different
//     digests, or missing on some owner): it fetches every owner's
//     copy, so merging them all masks a replica that missed a write.
//
// It returns a verdict per key and the blobs to merge: the designated
// copy of each agreed key (when fetch is set) and every copy of each
// divergent key. Missing copies are skipped. Both the plain (gather,
// Count) and windowed (gatherWindows) reads sit on this scaffold and
// differ only in how they decode and merge.
func (n *Node) gatherOwnerBlobs(m *Map, keys []string, fetch bool) ([]keyRead, []ownerBlob, error) {
	owners := make([][]Member, len(keys))
	designated := make([]int, len(keys)) // index into owners[k]
	answers := make([][]peekAnswer, len(keys))
	var reads []*ownerRead
	byID := make(map[string]*ownerRead)
	readFor := func(o Member) *ownerRead {
		r, ok := byID[o.ID]
		if !ok {
			r = &ownerRead{owner: o}
			byID[o.ID] = r
			reads = append(reads, r)
		}
		return r
	}
	for k, key := range keys {
		owners[k] = m.Owners(key)
		answers[k] = make([]peekAnswer, len(owners[k]))
		for oi, o := range owners[k] {
			if o.ID == n.id {
				designated[k] = oi
			}
			r := readFor(o)
			r.peeks = append(r.peeks, peekSlot{k, oi})
		}
		if fetch && len(owners[k]) > 0 {
			r := readFor(owners[k][designated[k]])
			r.dumps = append(r.dumps, k)
		}
	}
	out, err := n.readOwners(reads, keys, answers, !fetch)
	if err != nil {
		return nil, nil, err
	}

	// Agreement. Round 2 reuses the per-owner reads, now carrying only
	// the divergent keys' copies.
	verdicts := make([]keyRead, len(keys))
	var agreed, divergent uint64
	for _, r := range reads {
		r.peeks, r.dumps = nil, nil
	}
	for k, key := range keys {
		verdicts[k] = keyRead{key: key, agreed: true}
		if len(owners[k]) == 0 {
			continue
		}
		d := designated[k]
		verdicts[k].peek, verdicts[k].from = answers[k][d], owners[k][d].ID
		for _, a := range answers[k] {
			if a != answers[k][d] {
				verdicts[k].agreed = false
				break
			}
		}
		if verdicts[k].agreed {
			agreed++
			continue
		}
		divergent++
		for oi, o := range owners[k] {
			if !fetch || oi != d { // the designated copy came in round 1
				r := byID[o.ID]
				r.dumps = append(r.dumps, k)
			}
		}
	}
	n.gatherAgreed.Add(agreed)
	n.gatherDivergent.Add(divergent)
	if divergent > 0 {
		more, err := n.readOwners(reads, keys, nil, false)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, more...)
	}
	n.gatherBlobs.Add(uint64(len(out)))
	return verdicts, out, nil
}

// peekSlot is one key to PEEK on an owner: keys[k], whose answer goes
// to answers[k][oi].
type peekSlot struct{ k, oi int }

// ownerRead is one owner's share of one round of a digest read.
type ownerRead struct {
	owner Member
	peeks []peekSlot
	dumps []int // keys[k] to DUMPZ
}

// readOwners runs one round: every owner with work gets one batch,
// concurrently. PEEK (est set) or PEEKD answers land in answers; the
// fetched copies are returned.
func (n *Node) readOwners(reads []*ownerRead, keys []string, answers [][]peekAnswer, est bool) ([]ownerBlob, error) {
	blobs := make([][]ownerBlob, len(reads))
	errs := make([]error, len(reads))
	var wg sync.WaitGroup
	for i, r := range reads {
		if len(r.peeks) == 0 && len(r.dumps) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, r *ownerRead) {
			defer wg.Done()
			blobs[i], errs[i] = n.readOwner(r, keys, answers, est)
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []ownerBlob
	for _, group := range blobs {
		out = append(out, group...)
	}
	return out, nil
}

// readOwner reads one owner in one pipelined batch — the PEEKs (est
// set) or PEEKDs of r.peeks, then the DUMPZs of r.dumps — or
// in-process when the owner is this node. Missing copies are skipped.
func (n *Node) readOwner(r *ownerRead, keys []string, answers [][]peekAnswer, est bool) ([]ownerBlob, error) {
	var got []ownerBlob
	if r.owner.ID == n.id {
		for _, s := range r.peeks {
			p, ok := n.store.Peek(keys[s.k], est)
			answers[s.k][s.oi] = peekAnswer{present: ok, KeyPeek: p}
		}
		for _, k := range r.dumps {
			if blob, ok := n.store.Dump(keys[k]); ok {
				got = append(got, ownerBlob{keys[k], n.id, blob})
			}
		}
		return got, nil
	}
	peek := "PEEKD"
	if est {
		peek = "PEEK"
	}
	var cmds [][]string
	var chunks [][]peekSlot
	for lo := 0; lo < len(r.peeks); lo += maxPeekKeys {
		chunk := r.peeks[lo:min(lo+maxPeekKeys, len(r.peeks))]
		cmd := make([]string, 0, 2+len(chunk))
		cmd = append(cmd, "CLUSTER", peek)
		for _, s := range chunk {
			cmd = append(cmd, keys[s.k])
		}
		cmds = append(cmds, cmd)
		chunks = append(chunks, chunk)
	}
	for _, k := range r.dumps {
		cmds = append(cmds, []string{"DUMPZ", keys[k]})
	}
	results, err := n.peers.pipeline(r.owner.Addr, cmds)
	if err != nil {
		return nil, fmt.Errorf("cluster: dump from %s: %w", r.owner.ID, err)
	}
	for c, chunk := range chunks {
		res := results[c]
		if res.Err != nil {
			return nil, fmt.Errorf("cluster: peek from %s: %w", r.owner.ID, res.Err)
		}
		got, err := parsePeekReply(res.Value, len(chunk), est)
		if err != nil {
			return nil, fmt.Errorf("cluster: peek from %s: %w", r.owner.ID, err)
		}
		for j, s := range chunk {
			answers[s.k][s.oi] = got[j]
		}
	}
	for c, res := range results[len(chunks):] {
		key := keys[r.dumps[c]]
		if errors.Is(res.Err, server.ErrNoSuchKey) {
			continue
		}
		blob, err := decodeDumpz(res)
		if err != nil {
			return nil, fmt.Errorf("cluster: dump %q from %s: %w", key, r.owner.ID, err)
		}
		got = append(got, ownerBlob{key, r.owner.ID, blob})
	}
	return got, nil
}

// decodeDumpz decodes one DUMPZ reply into the value blob.
func decodeDumpz(res server.Result) ([]byte, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	blob, err := base64.StdEncoding.DecodeString(res.Value)
	if err != nil {
		return nil, err
	}
	return compress.DecodeBlob(blob, maxGatherBlobBytes)
}

// countWith is Count against one map. A single plain key whose owners
// agree is answered by the estimate they report, with no sketch
// fetched; everything else merges the gathered copies.
func (n *Node) countWith(m *Map, keys []string) (float64, error) {
	single := len(keys) == 1
	reads, blobs, err := n.gatherOwnerBlobs(m, keys, !single)
	if err != nil {
		return 0, err
	}
	if single && reads[0].agreed {
		r := reads[0]
		switch {
		case !r.peek.present:
			return 0, nil
		case r.peek.Window:
			return 0, fmt.Errorf("cluster: sketch %q from %s: %w", r.key, r.from, server.ErrWrongType)
		default:
			return r.peek.Estimate, nil
		}
	}
	acc, err := mergeSketchBlobs(blobs)
	if err != nil || acc == nil {
		return 0, err
	}
	return acc.Estimate(), nil
}

// gather reads every key (see gatherOwnerBlobs) and merges the copies
// into one sketch (nil if no key exists anywhere).
func (n *Node) gather(m *Map, keys []string) (*core.Sketch, error) {
	_, blobs, err := n.gatherOwnerBlobs(m, keys, true)
	if err != nil {
		return nil, err
	}
	return mergeSketchBlobs(blobs)
}

// mergeSketchBlobs merges plain sketch blobs into one sketch (nil for
// none). A windowed blob surfaces the store's WRONGTYPE error rather
// than merging garbage.
func mergeSketchBlobs(blobs []ownerBlob) (*core.Sketch, error) {
	var acc *core.Sketch
	for _, b := range blobs {
		if window.IsSerialized(b.blob) {
			return nil, fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, server.ErrWrongType)
		}
		sk, err := core.FromBinary(b.blob)
		if err != nil {
			return nil, fmt.Errorf("cluster: sketch %q from %s: %w", b.key, b.ownerID, err)
		}
		if acc == nil {
			acc = sk
			continue
		}
		if acc.Config() == sk.Config() {
			if err := acc.Merge(sk); err != nil {
				return nil, err
			}
			continue
		}
		merged, err := core.MergeCompatible(acc, sk)
		if err != nil {
			return nil, err
		}
		acc = merged
	}
	return acc, nil
}

// gatherWindows is gather's windowed sibling on the same
// gatherOwnerBlobs scaffold: the copies arrive as slot-wise window
// DUMPs and the rings merge slice by slice into one counter (nil if no
// key exists anywhere). A plain-sketch key surfaces the store's
// WRONGTYPE error rather than merging garbage.
func (n *Node) gatherWindows(m *Map, keys []string) (*window.Counter, error) {
	_, blobs, err := n.gatherOwnerBlobs(m, keys, true)
	if err != nil {
		return nil, err
	}
	var acc *window.Counter
	for _, b := range blobs {
		if !window.IsSerialized(b.blob) {
			return nil, fmt.Errorf("cluster: window dump %q from %s: %w", b.key, b.ownerID, server.ErrWrongType)
		}
		c, err := window.FromBinary(b.blob)
		if err != nil {
			return nil, fmt.Errorf("cluster: window dump %q from %s: %w", b.key, b.ownerID, err)
		}
		if acc == nil {
			acc = c
			continue
		}
		if err := acc.Merge(c); err != nil {
			return nil, err
		}
	}
	return acc, nil
}
