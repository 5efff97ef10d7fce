package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"exaloglog/internal/bitpack"
)

// Blob codec: a self-describing container for compressed sketch blobs.
//
// Layout: "ELC1" | method byte | uvarint rawLen | payload.
// The magic is distinct from every raw blob magic in the system ("EL\x01"
// core sketches, "ELW1" window counters, "ELSS" snapshots), so DecodeBlob
// can sniff it and pass anything else through unchanged — a blob
// EncodeBlob declined to compress is simply its own raw bytes.
//
// Methods form a cheap-first ladder:
//
//	'r'  stored       payload is rawLen raw bytes (only used when raw
//	                  data happens to start with the codec magic and
//	                  must be framed to stay sniffable)
//	's'  sparse       varint-coded nonzero registers of a dense core
//	                  sketch blob; payload re-expands to the exact
//	                  original bytes
//	'a'  entropy      payload is the raw bytes under the static order-0
//	                  rANS code of entropy.go (frequency table, then
//	                  stream)
//
// Order-0 coding of the raw bytes beats coding the sparse form at every
// density, so there is no sparse+entropy method. Method bytes 'e' and 'z'
// are retired and fail as unknown methods.
//
// EncodeBlob only emits a container when it is strictly smaller than the
// input, so callers can use it unconditionally; DecodeBlob bounds every
// allocation by the caller's limit before trusting any claimed length
// (mirroring the FromBinary / window pre-allocation clamps).
const (
	codecMagic = "ELC1"

	methodStored  = 'r'
	methodSparse  = 's'
	methodEntropy = 'a'

	// maxEntropyInput caps how much data the entropy stage is asked to
	// code per blob. The rANS coder encodes at roughly 100–140 MB/s and
	// decodes at 200–250 MB/s (BenchmarkCodecEncode/Decode p12_n100000
	// on a 2-vCPU Xeon VM), so 64 KiB bounds the encode cost near half a
	// millisecond. Larger blobs still get the (near-free) sparse layer.
	maxEntropyInput = 64 << 10

	// Core sketch header layout (see internal/core/serialize.go): magic
	// "EL", version, t, d, p, two reserved zero bytes.
	coreHeaderSize = 8
)

// ErrCodec is wrapped by every decode failure so callers can distinguish
// a malformed container from other I/O errors.
var ErrCodec = errors.New("compress: bad blob")

// IsCompressed reports whether data carries the codec container magic.
func IsCompressed(data []byte) bool {
	return len(data) >= len(codecMagic) && string(data[:len(codecMagic)]) == codecMagic
}

// EncodeBlob compresses a serialized sketch/window blob. The result is
// either a codec container strictly smaller than raw, or raw itself
// (unchanged, zero-copy) when no method wins. The input is never modified.
func EncodeBlob(raw []byte) []byte {
	best := len(raw)
	sparseLen, nz, sparse := sparseSize(raw)
	if sparse {
		best = sparseLen
	}
	// Entropy layer: only when the cheap layer left meaningful headroom
	// and the input is small enough for the coder's throughput. The
	// sparse container is only built when it is what gets returned.
	if best*2 > len(raw) && len(raw) <= maxEntropyInput {
		if c, ok := entropyAppend(containerHeader(make([]byte, 0, best), methodEntropy, len(raw)), raw, best); ok {
			return c
		}
	}
	switch {
	case sparse:
		return sparseEncode(raw, sparseLen, nz)
	case IsCompressed(raw):
		// Raw data colliding with the codec magic must be framed so the
		// decoder's sniff stays unambiguous. Sketch blobs never collide
		// (their magics differ); this guards arbitrary callers.
		buf := make([]byte, 0, len(codecMagic)+1+binary.MaxVarintLen64+len(raw))
		return append(containerHeader(buf, methodStored, len(raw)), raw...)
	}
	return raw
}

// DecodeBlob reverses EncodeBlob. Input without the codec magic is
// returned unchanged (a blob EncodeBlob left raw). maxLen
// bounds the decoded size: any container claiming more is rejected
// before a single byte is allocated.
func DecodeBlob(data []byte, maxLen int) ([]byte, error) {
	if !IsCompressed(data) {
		if len(data) > maxLen {
			return nil, fmt.Errorf("%w: %d raw bytes exceed limit %d", ErrCodec, len(data), maxLen)
		}
		return data, nil
	}
	rest := data[len(codecMagic):]
	if len(rest) == 0 {
		return nil, fmt.Errorf("%w: truncated header", ErrCodec)
	}
	method := rest[0]
	rest = rest[1:]
	rawLen64, n := binary.Uvarint(rest)
	if n <= 0 || rawLen64 > uint64(maxLen) {
		return nil, fmt.Errorf("%w: bad raw length", ErrCodec)
	}
	rest = rest[n:]
	rawLen := int(rawLen64)
	switch method {
	case methodStored:
		if len(rest) != rawLen {
			return nil, fmt.Errorf("%w: stored payload is %d bytes, want %d", ErrCodec, len(rest), rawLen)
		}
		return rest, nil
	case methodSparse:
		return sparseDecode(rest, rawLen)
	case methodEntropy:
		return entropyDecode(rest, rawLen)
	default:
		return nil, fmt.Errorf("%w: unknown method %q", ErrCodec, method)
	}
}

func containerHeader(dst []byte, method byte, rawLen int) []byte {
	dst = append(dst, codecMagic...)
	dst = append(dst, method)
	return binary.AppendUvarint(dst, uint64(rawLen))
}

// sparseGeometry validates a dense core-sketch header against the total
// blob length and returns its register geometry. ok is false for
// anything that is not byte-exactly a dense serialized core sketch (wrong
// magic, nonzero reserved bytes, out-of-range parameters, trailing or
// missing bytes) — sparse coding must reproduce the original blob bit for
// bit, so it only ever touches blobs whose entire content is determined
// by (header, registers).
func sparseGeometry(hdr []byte, rawLen int) (m int, w uint, ok bool) {
	if len(hdr) < coreHeaderSize || hdr[0] != 'E' || hdr[1] != 'L' || hdr[2] != 1 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, false
	}
	t, d, p := int(hdr[3]), int(hdr[4]), int(hdr[5])
	w = uint(6 + t + d)
	if w > bitpack.MaxWidth || p < 1 || p > 26 {
		return 0, 0, false
	}
	m = 1 << p
	if rawLen != coreHeaderSize+(m*int(w)+7)/8 {
		return 0, 0, false
	}
	return m, w, true
}

// register reads the i-th w-bit field of a little-endian packed register
// array (the bitpack layout) straight from its serialized bytes.
func register(regs []byte, i int, w uint) uint64 {
	off := uint(i) * w
	return word(regs, int(off>>3)) >> (off & 7) & (1<<w - 1)
}

// word loads the little-endian 64-bit word at byte b, zero-padded past
// the end of data.
func word(data []byte, b int) uint64 {
	if b+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[b:])
	}
	return wordTail(data, b)
}

// wordTail is word's slow path, kept out of line so that word inlines.
func wordTail(data []byte, b int) uint64 {
	var x uint64
	for k := len(data) - 1; k >= b; k-- {
		x = x<<8 | uint64(data[k])
	}
	return x
}

// eachRegister calls f(i, v) for the nonzero registers of a packed array
// in index order and stops early, returning false, when f does. It skips
// all-zero 64-bit words without decoding a register, so sparse arrays
// scan at memory speed.
func eachRegister(regs []byte, m int, w uint, f func(i int, v uint64) bool) bool {
	i := 0 // first register not yet examined
	for b := 0; b < len(regs); b += 8 {
		if word(regs, b) == 0 {
			continue
		}
		// Examine the registers overlapping bits [8b, 8b+64) of this word,
		// jumping over those that lie wholly in skipped zero words.
		if uint(i+1)*w <= uint(8*b) {
			i = int(uint32(8*b) / uint32(w))
		}
		for ; i < m && uint(i)*w < uint(8*b+64); i++ {
			if v := register(regs, i, w); v != 0 && !f(i, v) {
				return false
			}
		}
	}
	return true
}

// orRegister ORs v into the i-th w-bit field of a packed register array.
func orRegister(regs []byte, i int, w uint, v uint64) {
	off := uint(i) * w
	b := off >> 3
	for v <<= off & 7; v != 0; v >>= 8 {
		regs[b] |= byte(v)
		b++
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// sparseSize reports the length of blob's sparse container — header +
// uvarint nonzero-count + (uvarint index-gap, uvarint value) pairs — its
// nonzero-register count, and whether blob is a dense core sketch whose
// sparse container is shorter than blob. It gives up as soon as the
// running size reaches the raw length, so a dense blob costs a partial
// scan.
func sparseSize(blob []byte) (size, nz int, ok bool) {
	m, w, ok := sparseGeometry(blob, len(blob))
	if !ok {
		return 0, 0, false
	}
	// Bits past the last register are not coded; a blob with any set
	// (never written by MarshalBinary) must keep its exact bytes.
	if pad := uint(len(blob)-coreHeaderSize)*8 - uint(m)*w; blob[len(blob)-1]>>(8-pad) != 0 {
		return 0, 0, false
	}
	size = len(codecMagic) + 1 + uvarintLen(uint64(len(blob))) + coreHeaderSize
	prev := -1
	ok = eachRegister(blob[coreHeaderSize:], m, w, func(i int, v uint64) bool {
		size += uvarintLen(uint64(i-prev-1)) + uvarintLen(v)
		nz, prev = nz+1, i
		return size+uvarintLen(uint64(nz)) < len(blob)
	})
	return size + uvarintLen(uint64(nz)), nz, ok
}

// sparseEncode builds the sparse container of a blob sparseSize
// accepted, from the size and nonzero count it reported.
func sparseEncode(blob []byte, size, nz int) []byte {
	m, w, _ := sparseGeometry(blob, len(blob))
	regs := blob[coreHeaderSize:]
	buf := containerHeader(make([]byte, 0, size), methodSparse, len(blob))
	buf = append(buf, blob[:coreHeaderSize]...)
	buf = binary.AppendUvarint(buf, uint64(nz))
	prev := -1
	eachRegister(regs, m, w, func(i int, v uint64) bool {
		buf = binary.AppendUvarint(buf, uint64(i-prev-1))
		buf = binary.AppendUvarint(buf, v)
		prev = i
		return true
	})
	return buf
}

// sparseDecode re-expands a sparse payload to the exact dense blob.
// Allocation is bounded by the geometry the (validated) header implies,
// which the caller has already capped via rawLen ≤ maxLen.
func sparseDecode(payload []byte, rawLen int) ([]byte, error) {
	// Re-derive geometry from the embedded header; it must reproduce
	// exactly the claimed raw length or the container is inconsistent.
	m, w, ok := sparseGeometry(payload, rawLen)
	if !ok {
		return nil, fmt.Errorf("%w: sparse header inconsistent with raw length %d", ErrCodec, rawLen)
	}
	rest := payload[coreHeaderSize:]
	nz64, n := binary.Uvarint(rest)
	if n <= 0 || nz64 > uint64(m) {
		return nil, fmt.Errorf("%w: bad register count", ErrCodec)
	}
	rest = rest[n:]
	out := make([]byte, rawLen)
	copy(out, payload[:coreHeaderSize])
	regs := out[coreHeaderSize:]
	mask := uint64(1)<<w - 1
	idx := -1
	for k := uint64(0); k < nz64; k++ {
		gap, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated register stream", ErrCodec)
		}
		rest = rest[n:]
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated register value", ErrCodec)
		}
		rest = rest[n:]
		// Bound the gap before converting: a hostile 64-bit gap must not
		// wrap the index negative.
		if gap >= uint64(m) {
			return nil, fmt.Errorf("%w: register index out of range", ErrCodec)
		}
		idx += 1 + int(gap)
		if idx >= m {
			return nil, fmt.Errorf("%w: register index out of range", ErrCodec)
		}
		if v == 0 || v&^mask != 0 {
			return nil, fmt.Errorf("%w: register value out of range", ErrCodec)
		}
		// Indices strictly increase, so every field is written once into
		// zeroed bytes and OR is a store.
		orRegister(regs, idx, w, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(rest))
	}
	return out, nil
}
