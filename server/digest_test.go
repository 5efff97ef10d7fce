package server

import (
	"fmt"
	"testing"
	"time"

	"exaloglog/internal/core"
)

// TestBlobDigestSingleByteChange: changing any single byte of a
// serialized sketch changes its digest — the property that lets a
// digest read trust replicas whose digests agree.
func TestBlobDigestSingleByteChange(t *testing.T) {
	for _, n := range []int{0, 3, 2000} {
		sk := core.MustNew(core.RecommendedML(6))
		for i := 0; i < n; i++ {
			sk.AddString(fmt.Sprintf("e-%d", i))
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want := blobDigest("k", blob)
		for i := range blob {
			for _, delta := range []byte{1, 0x80, 0xff} {
				blob[i] ^= delta
				if blobDigest("k", blob) == want {
					t.Fatalf("n=%d: byte %d ^ %#x left the digest unchanged", n, i, delta)
				}
				blob[i] ^= delta
			}
		}
		if blobDigest("k", blob) != want {
			t.Fatal("digest not a pure function of its input")
		}
		if blobDigest("k2", blob) == want {
			t.Errorf("n=%d: digest ignores the key", n)
		}
	}
}

// TestPeekReportsDigestAndEstimate: Peek's digest is the digest of the
// value Dump serializes, its estimate is Count's, and both follow every
// mutation; a digest-only peek estimates nothing; windowed, missing and
// expired keys answer as such.
func TestPeekReportsDigestAndEstimate(t *testing.T) {
	s := newTestStore(t)
	if _, ok := s.Peek("nope", true); ok {
		t.Error("Peek of a missing key reported ok")
	}
	if _, err := s.Add("k", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		p, ok := s.Peek("k", true)
		if !ok || p.Window {
			t.Fatalf("Peek(k) = %+v, %v", p, ok)
		}
		blob, _ := s.Dump("k")
		if p.Digest != blobDigest("k", blob) {
			t.Error("Peek digest differs from the digest of Dump")
		}
		if want, _ := s.Count("k"); p.Estimate != want {
			t.Errorf("Peek estimate %v, Count %v", p.Estimate, want)
		}
	}
	check()
	before, _ := s.Peek("k", true)
	if _, err := s.Add("k", "d"); err != nil {
		t.Fatal(err)
	}
	check()
	if after, _ := s.Peek("k", true); after.Digest == before.Digest || after.Estimate == before.Estimate {
		t.Errorf("Peek did not follow an add: %+v → %+v", before, after)
	}

	if _, err := s.WindowAdd("w", time.UnixMilli(1_750_000_000_000), "x"); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.Peek("w", true); !ok || !p.Window || p.Estimate != 0 {
		t.Errorf("Peek of a window key = %+v, %v", p, ok)
	}

	// On a just-written key a digest-only peek estimates nothing; an
	// estimating peek then estimates once and reports the same digest.
	if _, err := s.Add("k", "e"); err != nil {
		t.Fatal(err)
	}
	_, misses := s.CacheStats()
	d, ok := s.Peek("k", false)
	if _, m := s.CacheStats(); m != misses {
		t.Errorf("digest-only Peek estimated the key (%d cache misses)", m-misses)
	}
	if !ok || d.Window || d.Estimate != 0 {
		t.Errorf("digest-only Peek = %+v, %v", d, ok)
	}
	full, _ := s.Peek("k", true)
	if _, m := s.CacheStats(); m != misses+1 {
		t.Errorf("estimating Peek of a written key: %d cache misses, want 1", m-misses)
	}
	if full.Digest != d.Digest {
		t.Errorf("digest-only Peek digest %x, estimating Peek %x", d.Digest, full.Digest)
	}

	s.ExpireAt("k", 1)
	if _, ok := s.Peek("k", true); ok {
		t.Error("Peek of an expired key reported ok")
	}
}
