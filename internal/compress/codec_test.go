package compress_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"exaloglog/internal/compress"
	"exaloglog/internal/core"
	"exaloglog/window"
)

// sketchBlob returns a serialized dense ML sketch with n distinct elements.
func sketchBlob(t testing.TB, p, n int) []byte {
	t.Helper()
	s, err := core.New(core.RecommendedML(p))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)*7919 + int64(p)))
	for i := 0; i < n; i++ {
		s.AddHash(rng.Uint64())
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCodecRoundTripSketch(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 5000, 200000} {
		blob := sketchBlob(t, 12, n)
		enc := compress.EncodeBlob(blob)
		dec, err := compress.DecodeBlob(enc, len(blob))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !bytes.Equal(dec, blob) {
			t.Fatalf("n=%d: round trip mismatch (%d vs %d bytes)", n, len(dec), len(blob))
		}
		if len(enc) > len(blob) {
			t.Fatalf("n=%d: encode grew the blob %d → %d", n, len(blob), len(enc))
		}
		t.Logf("n=%d: %d → %d bytes (%.1f%%)", n, len(blob), len(enc), 100*float64(len(enc))/float64(len(blob)))
	}
}

// TestCodecSparseWins: a near-empty sketch (the common case for per-key
// cluster sketches) must compress dramatically — this ratio is the whole
// point of the wire codec.
func TestCodecSparseWins(t *testing.T) {
	blob := sketchBlob(t, 12, 10)
	enc := compress.EncodeBlob(blob)
	if len(enc)*10 > len(blob) {
		t.Fatalf("10-element p=12 sketch compressed only %d → %d bytes; want ≥10×", len(blob), len(enc))
	}
}

// TestCodecAllocs: each method allocates only its output buffer.
func TestCodecAllocs(t *testing.T) {
	for _, n := range []int{10, 2000, 100000} {
		blob := sketchBlob(t, 12, n)
		enc := compress.EncodeBlob(blob)
		if a := testing.AllocsPerRun(10, func() { compress.EncodeBlob(blob) }); a != 1 {
			t.Errorf("n=%d (method %q): EncodeBlob allocates %v times, want 1", n, enc[4], a)
		}
		if a := testing.AllocsPerRun(10, func() { compress.DecodeBlob(enc, len(blob)) }); a != 1 {
			t.Errorf("n=%d (method %q): DecodeBlob allocates %v times, want 1", n, enc[4], a)
		}
	}
}

func TestCodecRoundTripWindowBlob(t *testing.T) {
	w, err := window.New(core.RecommendedML(10), time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	for i := 0; i < 500; i++ {
		w.AddString(base.Add(time.Duration(i)*time.Millisecond), fmt.Sprintf("elem-%d", i))
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc := compress.EncodeBlob(blob)
	dec, err := compress.DecodeBlob(enc, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, blob) {
		t.Fatal("window blob round trip mismatch")
	}
}

func TestCodecRoundTripArbitrary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		nil,
		{},
		[]byte("hello"),
		[]byte("ELC1 raw data that collides with the codec magic"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("abc"), 1000),
	}
	random := make([]byte, 2048)
	rng.Read(random)
	// A zero p=2 ELL(0,51) sketch blob (4 registers of 57 bits) with its
	// 4 padding bits set: sparse coding must not drop them.
	padded := append([]byte{'E', 'L', 1, 0, 51, 2, 0, 0}, make([]byte, 29)...)
	padded[len(padded)-1] = 0xf0
	cases = append(cases, random, padded)
	for i, raw := range cases {
		enc := compress.EncodeBlob(raw)
		dec, err := compress.DecodeBlob(enc, len(raw))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, raw) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestDecodeBlobPassThrough(t *testing.T) {
	raw := []byte("EL not actually compressed")
	dec, err := compress.DecodeBlob(raw, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("uncompressed input must pass through unchanged")
	}
	if _, err := compress.DecodeBlob(raw, len(raw)-1); err == nil {
		t.Fatal("want error when raw input exceeds the limit")
	}
}

func TestDecodeBlobRejectsOversizedClaim(t *testing.T) {
	blob := sketchBlob(t, 12, 100)
	enc := compress.EncodeBlob(blob)
	if !compress.IsCompressed(enc) {
		t.Skip("blob did not compress")
	}
	if _, err := compress.DecodeBlob(enc, len(blob)-1); err == nil {
		t.Fatal("want error when claimed raw length exceeds the limit")
	}
}

func TestDecodeBlobHostile(t *testing.T) {
	// A valid rANS frequency table (byte 0: 4095, byte 1: 1, then a run
	// of 254 absent bytes) and a coder state equal to the start state.
	const table, low = "\xff\x1f\x01\x00\xfd", "\x00\x00\x80\x00"
	cases := [][]byte{
		[]byte("ELC1"),
		[]byte("ELC1\x00"),
		[]byte("ELC1s"),
		[]byte("ELC1s\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // huge rawLen
		[]byte("ELC1r\x05ab"), // stored, short payload
		[]byte("ELC1e\x00"),
		[]byte("ELC1z\x08\x03abc"),
		append([]byte("ELC1s\x10"), bytes.Repeat([]byte{0xff}, 64)...),
		[]byte("ELC1a\x00"),
		[]byte("ELC1a\x10"),
		[]byte("ELC1a\x10\x00\xff"),                            // table of absent bytes only
		[]byte("ELC1a\x10\x80\x20\x00\xfe" + low + low),        // one byte holding the whole scale
		[]byte("ELC1a\x10\x01\x00\xff" + low + low),            // zero run past the alphabet
		[]byte("ELC1a\x10\xff\x1f\x00\xfe" + low + low),        // frequencies short of the scale
		[]byte("ELC1a\x10" + table + low),                      // one coder state missing
		[]byte("ELC1a\x10" + table + low + "\xff\xff\xff\xff"), // state out of range
		[]byte("ELC1a\x10" + table + low + low),                // stream ends before 16 bytes
		[]byte("ELC1a\x00" + table + low + low + "\x00"),       // trailing byte
	}
	for i, data := range cases {
		if _, err := compress.DecodeBlob(data, 1<<20); !errors.Is(err, compress.ErrCodec) {
			t.Fatalf("case %d: want ErrCodec for hostile input %q, got %v", i, data, err)
		}
	}
}

// Containers written by the earlier adaptive order-1 coder (methods 'e'
// and 'z'): their method bytes are retired, so they must fail cleanly
// rather than decode to the wrong registers.
var retiredContainers = map[string]string{
	"e": "454c433165e80100bab3f6fdebf9ffffffae0d68a8048e1320eb016c4a6416bffffff8b7cc2006f83ddefd95f3cccd3cfeb3b27a5ca159ab213e0712ba521a9058f41a3e0d3dcb15b9f83c1aa35ab705c4340e1bc7c4d66baa212b9c12b476f9634dd634d23ffc1107151a33674b08861ef65faacebfd91b9ec0da23bec226003bd6aaaeb3587f20c093aeabffeb5f3b7f8c0aa289886d281559849fc90975a917269f49649e80120151e625632bb32bb7e8d23662ba140ccaa1c4e3cfaf4e6c18e91bfd8a16d7f554d1d3c89a9e9680a97199b2cd1bd2de31c5d3d6bbc6358fe3fdd71300",
	"z": "454c43317a786c00bab3f6fdebfaffffe9b036a9bd189faa755a069bc262cdc6cfd56e9da26da999d56ea8287502f249f1e0c00cf78f77ecc4210dda4bf392f9fe08ac47b21dbf42f8c4f0e9bf2e1d9718793ad8dca0426bb6bf44751e652192f360213a4dc393d73c811f1d57dc",
}

func TestDecodeBlobRejectsRetiredMethods(t *testing.T) {
	for method, h := range retiredContainers {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compress.DecodeBlob(data, 1<<20); !errors.Is(err, compress.ErrCodec) {
			t.Errorf("method %s: retired container decoded (err %v), want ErrCodec", method, err)
		}
	}
}

// TestDecodeBlobEntropyStrict: every truncation of an entropy container
// that keeps the magic, and the container with a byte appended, must fail
// — the decoder consumes its payload exactly.
func TestDecodeBlobEntropyStrict(t *testing.T) {
	blob := sketchBlob(t, 10, 5000)
	enc := compress.EncodeBlob(blob)
	if len(enc) < 5 || enc[4] != 'a' {
		t.Fatalf("dense p=10 sketch did not take the entropy method: %q", enc[:5])
	}
	for cut := len("ELC1"); cut < len(enc); cut++ {
		if _, err := compress.DecodeBlob(enc[:cut], len(blob)); err == nil {
			t.Fatalf("container truncated to %d of %d bytes decoded", cut, len(enc))
		}
	}
	if _, err := compress.DecodeBlob(append(enc[:len(enc):len(enc)], 0), len(blob)); !errors.Is(err, compress.ErrCodec) {
		t.Fatalf("container with a trailing byte: got %v, want ErrCodec", err)
	}
	// A flipped bit past the magic derails the coder states, so the
	// stream almost never ends in its start state. rANS states can fall
	// back into step after a bad byte, so a few flips still decode (to
	// other bytes); the end-state check must catch at least 99 %.
	decoded := 0
	for i := len("ELC1"); i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 1
		if _, err := compress.DecodeBlob(bad, len(blob)); err == nil {
			decoded++
		}
	}
	if decoded*100 > len(enc) {
		t.Fatalf("%d of %d single-bit corruptions decoded without error", decoded, len(enc))
	}
}

// TestCodecFixtureLadder pins total encoded bytes over a density ladder
// of p=12 ELL(2,20) sketches. The adaptive order-1 coder that the rANS
// stage replaced took 75715 bytes here; the gate sits below that.
func TestCodecFixtureLadder(t *testing.T) {
	total := 0
	for _, n := range []int{1, 10, 100, 500, 1000, 1500, 2000, 3000, 5000, 10000, 20000, 100000, 200000} {
		blob := sketchBlob(t, 12, n)
		enc := compress.EncodeBlob(blob)
		total += len(enc)
		t.Logf("n=%d: %d → %d bytes (method %q)", n, len(blob), len(enc), enc[4])
	}
	t.Logf("total %d bytes", total)
	if total > 75484 {
		t.Fatalf("ladder encodes to %d bytes, want at most 75484", total)
	}
}

func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte("ELC1s\x10\x02\x00\x01"))
	f.Add(sketchBlob(f, 8, 50))
	f.Add(compress.EncodeBlob(sketchBlob(f, 8, 50)))
	f.Add(compress.EncodeBlob(sketchBlob(f, 10, 5000)))
	f.Add(compress.EncodeBlob(sketchBlob(f, 12, 100000)))
	f.Add(compress.EncodeBlob(bytes.Repeat([]byte("abc"), 300)))
	f.Add(compress.EncodeBlob(bytes.Repeat([]byte{7}, 100)))
	f.Add([]byte("ELC1z\xff\x01\xff\x01deadbeef"))
	for _, h := range retiredContainers {
		data, _ := hex.DecodeString(h)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Production callers cap decodes in the MB range; the fuzzer uses
		// a smaller cap so containers claiming huge outputs don't
		// throttle exec rate.
		const limit = 64 << 10
		dec, err := compress.DecodeBlob(data, limit)
		if err != nil {
			if !errors.Is(err, compress.ErrCodec) {
				t.Fatalf("decode error %v does not wrap ErrCodec", err)
			}
			return
		}
		if len(dec) > limit {
			t.Fatalf("decode exceeded limit: %d > %d", len(dec), limit)
		}
		// Whatever decoded must re-encode and decode to itself: the codec
		// is a bijection on its own output.
		enc := compress.EncodeBlob(dec)
		back, err := compress.DecodeBlob(enc, len(dec))
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(back, dec) {
			t.Fatal("re-encode round trip mismatch")
		}
	})
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ELC1"))
	f.Add(sketchBlob(f, 8, 10))
	f.Add(sketchBlob(f, 10, 5000))
	f.Add(bytes.Repeat([]byte{7}, 100))
	f.Fuzz(func(t *testing.T, raw []byte) {
		enc := compress.EncodeBlob(raw)
		dec, err := compress.DecodeBlob(enc, len(raw))
		if err != nil {
			t.Fatalf("decode of own encode failed: %v", err)
		}
		if !bytes.Equal(dec, raw) {
			t.Fatal("round trip mismatch")
		}
	})
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, n := range []int{10, 1000, 2000, 5000, 20000, 100000} {
		blob := sketchBlob(b, 12, n)
		b.Run(fmt.Sprintf("p12_n%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compress.EncodeBlob(blob)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, n := range []int{10, 1000, 2000, 5000, 20000, 100000} {
		blob := sketchBlob(b, 12, n)
		enc := compress.EncodeBlob(blob)
		b.Run(fmt.Sprintf("p12_n%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compress.DecodeBlob(enc, len(blob)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
