package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestANSReciprocalExact: the encoder's multiply-shift quotient must equal
// x / f for every frequency and every state the encoder can hold when it
// divides: renormalization leaves x in [2^11, xMax).
func TestANSReciprocalExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for f := uint32(1); f <= ansScale; f++ {
		var e ansEncSym
		e.init(f, 0)
		check := func(x uint32) {
			if x < 1<<11 || x >= e.xMax {
				return
			}
			q := uint32(uint64(x)*uint64(e.rcp)>>32) >> e.shift
			if f == 1 {
				q++ // the f = 1 encoding folds the +1 into bias
			}
			if q != x/f {
				t.Fatalf("f=%d x=%d: reciprocal quotient %d, want %d", f, x, q, x/f)
			}
		}
		check(1 << 11)
		check(e.xMax - 1)
		for i := 0; i < 64; i++ {
			q := r.Uint32() % (e.xMax / f)
			check(q * f)
			check(q*f + f - 1)
			check(r.Uint32() % e.xMax)
		}
	}
}

func TestEntropyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	skewed := make([]byte, 5000)
	for i := range skewed {
		skewed[i] = byte(r.ExpFloat64() * 3)
	}
	random := make([]byte, 3001)
	r.Read(random)
	cases := [][]byte{
		{0}, {0xff}, {1, 2}, {1, 2, 3},
		bytes.Repeat([]byte{9}, 1000),
		bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 1}, 500),
		skewed, random,
	}
	for n := 1; n < 64; n++ {
		cases = append(cases, skewed[:n])
	}
	for i, src := range cases {
		limit := 2*len(src) + 1024 // room for the table on tiny inputs
		enc, ok := entropyAppend(make([]byte, 0, limit), src, limit)
		if !ok {
			t.Fatalf("case %d: %d bytes did not fit in %d", i, len(src), limit)
		}
		dec, err := entropyDecode(enc, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
		if _, err := entropyDecode(enc, len(src)+1); err == nil {
			t.Fatalf("case %d: decoding one symbol too many succeeded", i)
		}
	}
}

// TestEntropyAppendRespectsLimit: the coder reports failure instead of
// writing past limit, and never emits a result of limit bytes or more.
func TestEntropyAppendRespectsLimit(t *testing.T) {
	random := make([]byte, 4000)
	rand.New(rand.NewSource(3)).Read(random)
	for _, limit := range []int{1, 10, 300, 3000, 4000, 4400} {
		if enc, ok := entropyAppend(make([]byte, 0, limit), random, limit); ok && len(enc) >= limit {
			t.Fatalf("limit %d: produced %d bytes", limit, len(enc))
		}
	}
}
