package cluster

// Tests for the compressed transfer frames (ELX3): the headline
// wire-bytes reduction on a 2000-key rebalance, the one frame layout's
// per-record codec (zero overhead for incompressible blobs, retired
// magics rejected), and the pooled frame-line scratch buffers'
// zero-alloc guarantee.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"exaloglog/server"
)

// TestTransferCompressionReducesWireBytes: rebalancing 2000 sparse
// sketches onto a joining node must put at least 2× fewer payload
// bytes on the wire than the uncompressed framing would — the PR's
// acceptance fixture. (In practice near-empty sketches compress ~100×;
// 2× is the floor the counters must prove.)
func TestTransferCompressionReducesWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-key compression fixture skipped in -short")
	}
	const total = 2000
	h := newHarnessCfg(t, 1, 2, &TransferConfig{MinStreamKeys: 1})
	keyName := func(k int) string { return fmt.Sprintf("zc-%d", k) }
	for k := 0; k < total; k++ {
		if _, err := h.node("n1").Add(keyName(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	h.start("n2", "127.0.0.1:0")

	frames := 0
	var mu sync.Mutex
	h.setIntercept(func(id, addr string, parts []string) error {
		if len(parts) >= 3 && parts[0] == "CLUSTER" && parts[2] == "FRAME" {
			mu.Lock()
			frames++
			mu.Unlock()
		}
		return nil
	})
	defer h.setIntercept(nil)

	if err := h.node("n2").Join(h.addr("n1")); err != nil {
		t.Fatal(err)
	}

	stats := sumTransferStats(h.running())
	if stats.BytesWire == 0 || stats.BytesPrecompress == 0 {
		t.Fatalf("compression counters never moved: pre=%d wire=%d", stats.BytesPrecompress, stats.BytesWire)
	}
	if stats.BytesPrecompress < 2*stats.BytesWire {
		t.Errorf("wire bytes %d vs %d precompress — less than the required 2× reduction",
			stats.BytesWire, stats.BytesPrecompress)
	}
	// The bytes-on-wire row CI's smoke step surfaces in its log.
	t.Logf("wire bytes: precompress=%d wire=%d ratio=%.1fx (%d keys)",
		stats.BytesPrecompress, stats.BytesWire,
		float64(stats.BytesPrecompress)/float64(stats.BytesWire), total)
	mu.Lock()
	sent := frames
	mu.Unlock()
	if sent == 0 {
		t.Error("no transfer frame ever hit the wire — the rebalance never streamed")
	}
	if stats.FallbackKeys != 0 {
		t.Errorf("%d keys degraded to per-key ABSORB", stats.FallbackKeys)
	}
	// Compression lost nothing: the joiner replicates every key.
	if got := h.node("n2").Store().Len(); got != total {
		t.Fatalf("joiner holds %d keys, want %d", got, total)
	}
	for k := 0; k < total; k += 83 {
		if got := mustCount(t, h.node("n2"), keyName(k)); int64(got+0.5) != 1 {
			t.Errorf("count %s = %v after compressed transfer, want ≈1", keyName(k), got)
		}
	}
}

// TestEncodeFrameSingleFormat: every frame is ELX3 with each record
// blob run through the wire codec. A blob the codec cannot shrink
// travels raw, so incompressible records cost zero extra bytes over the
// uncompressed layout; sparse sketches shrink and round-trip; frames
// tagged with the retired ELX1/ELX2 magics are rejected.
func TestEncodeFrameSingleFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := make([]server.KeyBlob, 8)
	for i := range items {
		blob := make([]byte, 4096)
		rng.Read(blob)
		items[i] = server.KeyBlob{Key: fmt.Sprintf("rnd-%d", i), Blob: blob}
	}
	if buf := encodeFrame(items); len(buf) != frameSizeRaw(items) {
		t.Errorf("incompressible frame is %d bytes, want exactly the raw %d", len(buf), frameSizeRaw(items))
	}

	sparse := make([]server.KeyBlob, 8)
	st, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range sparse {
		key := fmt.Sprintf("sp-%d", i)
		if _, err := st.Add(key, fmt.Sprintf("el-%d", i)); err != nil {
			t.Fatal(err)
		}
		blob, _ := st.Dump(key)
		sparse[i] = server.KeyBlob{Key: key, Blob: blob, Deadline: int64(i) * 1000}
	}
	zbuf := encodeFrame(sparse)
	if len(zbuf) >= frameSizeRaw(sparse) {
		t.Errorf("sparse frame is %d bytes for %d raw — no reduction", len(zbuf), frameSizeRaw(sparse))
	}
	got, err := decodeFrame(zbuf)
	if err != nil {
		t.Fatalf("decode of a compressed frame: %v", err)
	}
	if len(got) != len(sparse) {
		t.Fatalf("decoded %d records, want %d", len(got), len(sparse))
	}
	for i := range sparse {
		if got[i].Key != sparse[i].Key || got[i].Deadline != sparse[i].Deadline ||
			!bytes.Equal(got[i].Blob, sparse[i].Blob) {
			t.Errorf("record %d did not round-trip", i)
		}
	}

	for _, magic := range []string{"ELX1", "ELX2"} {
		retired := append([]byte(magic), zbuf[len(frameMagic):]...)
		if _, err := decodeFrame(retired); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s frame: decodeFrame = %v, want bad magic", magic, err)
		}
	}
}

// TestFrameLineScratchZeroAlloc: assembling a frame line into a warmed
// pooled scratch buffer must not allocate — the sender's steady state
// re-uses one buffer per stream, whatever the frame count.
func TestFrameLineScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	items := []server.KeyBlob{
		{Key: "k1", Blob: bytes.Repeat([]byte{3}, 1500)},
		{Key: "k2", Blob: bytes.Repeat([]byte{9}, 900), Deadline: 12345},
	}
	raw := encodeFrame(items)
	bufp := lineScratch.Get().(*[]byte)
	defer lineScratch.Put(bufp)
	*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", 1, raw) // size the buffer once
	seq := uint64(2)
	avg := testing.AllocsPerRun(200, func() {
		*bufp = appendFrameLine((*bufp)[:0], "sid-warmup", seq, raw)
		seq++
	})
	if avg != 0 {
		t.Errorf("appendFrameLine allocates %.2f per frame with a warmed scratch buffer, want 0", avg)
	}
	// The assembled line is still correct after the pooling dance.
	want := "CLUSTER XFER FRAME sid-warmup " +
		fmt.Sprint(seq-1) + " " + base64.StdEncoding.EncodeToString(raw)
	if got := string(*bufp); got != want {
		t.Errorf("pooled frame line diverged from the reference encoding:\n got %q\nwant %q", got[:60], want[:60])
	}
}
