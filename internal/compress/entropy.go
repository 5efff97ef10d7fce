package compress

import (
	"encoding/binary"
	"fmt"
)

// Static order-0 entropy stage: a byte-wise rANS coder (Duda's asymmetric
// numeral systems, range variant) under one frequency table that is
// counted from the input and stored in front of the stream.
//
// Payload layout:
//
//	frequency table | 2 × uint32le initial decoder states | renormalization bytes
//
// The table lists the quantized frequency of every byte value 0..255 in
// order, each as a uvarint; a run of absent byte values is written as a
// 0 byte followed by (run length - 1). The frequencies sum to exactly
// ansScale. Two coder states alternate over the symbols (even positions
// use the first, odd the second) and share one byte stream, which halves
// the decoder's dependency chain. Each state lives in [ansLow, ansLow<<8)
// and is renormalized a byte at a time; the encoder runs backwards over
// the input from states ansLow, so a well-formed stream ends with the
// decoder back at exactly ansLow in both states having consumed every
// byte. The decoder checks both, which makes truncated, overlong and most
// corrupted payloads fail instead of decoding to garbage.
const (
	ansScaleBits = 12
	ansScale     = 1 << ansScaleBits
	ansLow       = 1 << 23
	ansStateMax  = ansLow << 8
)

// ansTable is a normalized frequency table with its cumulative starts.
type ansTable struct {
	freq [256]uint32
	cum  [256]uint32
}

// normalize quantizes byte counts over n symbols to frequencies summing
// to ansScale, keeping every present symbol at frequency ≥ 1.
func (t *ansTable) normalize(count *[256]uint32, n int) {
	sum, top := uint32(0), 0
	for s, c := range count {
		if c == 0 {
			t.freq[s] = 0
			continue
		}
		f := uint32((uint64(c)*ansScale + uint64(n)/2) / uint64(n))
		if f == 0 {
			f = 1
		}
		t.freq[s] = f
		sum += f
		if c > count[top] {
			top = s
		}
	}
	// Rounding leaves the sum a little off; settle the difference on the
	// most frequent symbols, where it costs the least.
	for sum > ansScale {
		big := 0
		for s, f := range t.freq {
			if f > t.freq[big] {
				big = s
			}
		}
		cut := sum - ansScale
		if cut > t.freq[big]-1 {
			cut = t.freq[big] - 1
		}
		t.freq[big] -= cut
		sum -= cut
	}
	t.freq[top] += ansScale - sum
	if t.freq[top] == ansScale {
		// A lone symbol would leave the state unchanged, so the decoder
		// could not tell n symbols from n+1; lend a neighbour one slot.
		t.freq[top]--
		t.freq[top^1] = 1
	}
	t.cumulate()
}

func (t *ansTable) cumulate() {
	c := uint32(0)
	for s, f := range t.freq {
		t.cum[s] = c
		c += f
	}
}

// appendTo writes the table in its run-length uvarint form.
func (t *ansTable) appendTo(dst []byte) []byte {
	for s := 0; s < 256; {
		if f := t.freq[s]; f != 0 {
			dst = binary.AppendUvarint(dst, uint64(f))
			s++
			continue
		}
		run := 1
		for s+run < 256 && t.freq[s+run] == 0 {
			run++
		}
		dst = append(dst, 0, byte(run-1))
		s += run
	}
	return dst
}

// parse reads a table written by appendTo and returns the bytes after it.
func (t *ansTable) parse(data []byte) ([]byte, error) {
	sum := uint32(0)
	for s := 0; s < 256; {
		f, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated frequency table", ErrCodec)
		}
		data = data[n:]
		if f == 0 {
			if len(data) == 0 {
				return nil, fmt.Errorf("%w: truncated frequency table", ErrCodec)
			}
			run := int(data[0]) + 1
			data = data[1:]
			if s+run > 256 {
				return nil, fmt.Errorf("%w: frequency table overruns the alphabet", ErrCodec)
			}
			for end := s + run; s < end; s++ {
				t.freq[s] = 0
			}
			continue
		}
		// A lone symbol holding the whole scale is never written (see
		// normalize), and the sum must not pass the scale.
		if f >= ansScale || f > ansScale-uint64(sum) {
			return nil, fmt.Errorf("%w: frequencies exceed the scale", ErrCodec)
		}
		t.freq[s] = uint32(f)
		sum += uint32(f)
		s++
	}
	if sum != ansScale {
		return nil, fmt.Errorf("%w: frequencies sum to %d, want %d", ErrCodec, sum, ansScale)
	}
	t.cumulate()
	return data, nil
}

// ansEncSym holds one symbol's encoder constants. Dividing the state by
// the frequency is the slow step of rANS encoding, so it is done as a
// multiply by a rounded-up reciprocal and a shift, exact for every state
// below ansStateMax (Alverson, "Integer division using reciprocals"):
// with q = ⌊x/f⌋, the next state q·ansScale + x mod f + cum equals
// x + bias + q·cmpl.
type ansEncSym struct {
	xMax  uint32 // renormalize while x ≥ xMax
	rcp   uint32
	shift uint32
	bias  uint32
	cmpl  uint32 // ansScale - f
}

func (e *ansEncSym) init(f, cum uint32) {
	e.xMax = (ansStateMax >> ansScaleBits) * f
	e.cmpl = ansScale - f
	if f == 1 {
		// The quotient is x itself, which no 32-bit reciprocal yields;
		// rcp = 2^32-1 gives x-1, and the bias makes up the missing
		// cmpl = ansScale-1.
		e.rcp, e.shift, e.bias = ^uint32(0), 0, cum+ansScale-1
		return
	}
	shift := uint32(0)
	for f > 1<<shift {
		shift++
	}
	e.rcp = uint32((uint64(1)<<(shift+31) + uint64(f) - 1) / uint64(f))
	e.shift, e.bias = shift-1, cum
}

// put renormalizes x for symbol e, emitting at most two bytes downward
// from pos, and encodes the symbol.
func (e *ansEncSym) put(x uint32, buf []byte, pos int) (uint32, int) {
	for ; x >= e.xMax; x >>= 8 {
		pos--
		buf[pos] = byte(x)
	}
	q := uint32(uint64(x)*uint64(e.rcp)>>32) >> e.shift
	return x + e.bias + q*e.cmpl, pos
}

// entropyAppend appends the entropy-coded form of src (table and stream)
// to dst and reports whether the result stayed below limit bytes. dst
// must have capacity for limit bytes; the coder works in place there and
// allocates nothing. src must be nonempty.
func entropyAppend(dst, src []byte, limit int) ([]byte, bool) {
	// Four partial histograms break the store-to-load chain on runs of
	// equal bytes.
	var counts [4][256]uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		counts[0][src[i]]++
		counts[1][src[i+1]]++
		counts[2][src[i+2]]++
		counts[3][src[i+3]]++
	}
	for ; i < len(src); i++ {
		counts[0][src[i]]++
	}
	for s := range counts[0] {
		counts[0][s] += counts[1][s] + counts[2][s] + counts[3][s]
	}
	var t ansTable
	t.normalize(&counts[0], len(src))
	dst = t.appendTo(dst)
	// Room for the two flushed states plus one pair's worst-case output:
	// the loop checks the bound once per pair of symbols.
	head := len(dst) + 8 + 4
	if head >= limit {
		return nil, false
	}
	var syms [256]ansEncSym
	for s, f := range t.freq {
		if f != 0 {
			syms[s].init(f, t.cum[s])
		}
	}
	// The encoder runs backwards, so the stream is built downward from
	// the end of the buffer and moved up behind the table at the end.
	buf := dst[:limit]
	pos := limit
	x0, x1 := uint32(ansLow), uint32(ansLow)
	i = len(src) - 1
	if i&1 == 0 {
		x0, pos = syms[src[i]].put(x0, buf, pos)
		i--
	}
	for ; i > 0; i -= 2 {
		if pos < head {
			return nil, false
		}
		x1, pos = syms[src[i]].put(x1, buf, pos)
		x0, pos = syms[src[i-1]].put(x0, buf, pos)
	}
	pos -= 8
	if pos <= len(dst) {
		return nil, false // the result would fill all of limit
	}
	binary.LittleEndian.PutUint32(buf[pos:], x0)
	binary.LittleEndian.PutUint32(buf[pos+4:], x1)
	n := copy(buf[len(dst):], buf[pos:])
	return buf[:len(dst)+n], true
}

// refill renormalizes a decoder state from the stream at pos. A stream
// that runs out leaves x below ansLow, and since a decode step never
// raises a state without input, the end-of-stream check catches it.
func refill(x uint32, stream []byte, pos int) (uint32, int) {
	for x < ansLow && pos < len(stream) {
		x = x<<8 | uint32(stream[pos])
		pos++
	}
	return x, pos
}

// entropyDecode reverses entropyAppend, producing exactly n bytes. It
// fails with ErrCodec on a malformed table, an out-of-range state, a
// stream that runs out early, unconsumed trailing bytes, or a final
// state other than the encoder's start.
func entropyDecode(payload []byte, n int) ([]byte, error) {
	var t ansTable
	rest, err := t.parse(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: truncated entropy state", ErrCodec)
	}
	x0, x1 := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:])
	rest = rest[8:]
	if x0 < ansLow || x0 >= ansStateMax || x1 < ansLow || x1 >= ansStateMax {
		return nil, fmt.Errorf("%w: entropy state out of range", ErrCodec)
	}
	// slot packs, for each position r of [0, ansScale), its symbol s,
	// r - cum[s] and freq[s] - 1, so a decode step is one table load.
	var slot [ansScale]uint32
	for s, f := range t.freq {
		c := t.cum[s]
		for r := c; r < c+f; r++ {
			slot[r] = uint32(s) | (r-c)<<8 | (f-1)<<20
		}
	}
	// A decode step maps a state below ansStateMax to one below 2^31, so
	// it cannot overflow, and to at least 2^11, so two refills restore it.
	out := make([]byte, n)
	pos := 0
	i := 0
	for ; i+1 < n; i += 2 {
		e0, e1 := slot[x0&(ansScale-1)], slot[x1&(ansScale-1)]
		out[i], out[i+1] = byte(e0), byte(e1)
		x0 = (e0>>20+1)*(x0>>ansScaleBits) + e0>>8&(ansScale-1)
		x1 = (e1>>20+1)*(x1>>ansScaleBits) + e1>>8&(ansScale-1)
		x0, pos = refill(x0, rest, pos)
		x1, pos = refill(x1, rest, pos)
	}
	if i < n {
		e0 := slot[x0&(ansScale-1)]
		out[i] = byte(e0)
		x0 = (e0>>20+1)*(x0>>ansScaleBits) + e0>>8&(ansScale-1)
		x0, pos = refill(x0, rest, pos)
	}
	if x0 < ansLow || x1 < ansLow {
		return nil, fmt.Errorf("%w: entropy stream truncated", ErrCodec)
	}
	if pos != len(rest) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(rest)-pos)
	}
	if x0 != ansLow || x1 != ansLow {
		return nil, fmt.Errorf("%w: entropy stream did not end in its start state", ErrCodec)
	}
	return out, nil
}
