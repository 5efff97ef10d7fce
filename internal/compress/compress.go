// Package compress holds two entropy coders and the blob codec built on
// one of them.
//
// The adaptive binary arithmetic coder of this file is used to study the
// compressibility of sketch states (Section 6 of the paper) and to
// realize the CPC-like baseline: a PCSA sketch whose serialized form is
// entropy-coded. Bits are coded under per-context adaptive probability
// models, so the output size approaches the empirical Shannon entropy of
// the bit stream without any precomputed tables. The coder is a
// conventional 32-bit range coder in the LZMA style (carry propagation
// through a cache byte) with 12-bit probability states adapted with
// shift 5. Coding bit by bit makes it slow (under 10 MB/s).
//
// The blob codec (codec.go: EncodeBlob, DecodeBlob) compresses sketch
// and window blobs on every byte-moving serving path. It layers a
// sparse register encoding over a static order-0 byte code (entropy.go:
// rANS under one frequency table per blob), which codes symbols, not
// bits, and runs at 100–250 MB/s.
package compress

// Probabilities are 12-bit values in (0, 4096), giving P(bit=1) = p/4096.
const (
	probBits  = 12
	probOne   = 1 << probBits
	probInit  = probOne / 2
	adaptRate = 5
	probMin   = 32
)

// Model is a set of adaptive bit-probability contexts. The zero value is
// invalid; create with NewModel.
type Model struct {
	p []uint16
}

// NewModel creates a model with n independent contexts, all initialized to
// probability 1/2.
func NewModel(n int) *Model {
	m := &Model{p: make([]uint16, n)}
	m.Reset()
	return m
}

// Reset restores all contexts to probability 1/2.
func (m *Model) Reset() {
	for i := range m.p {
		m.p[i] = probInit
	}
}

func (m *Model) update(ctx int, bit int) {
	if bit == 1 {
		m.p[ctx] += (probOne - m.p[ctx]) >> adaptRate
	} else {
		m.p[ctx] -= m.p[ctx] >> adaptRate
	}
	// Keep probabilities away from 0 and 1 so both symbols stay codable.
	if m.p[ctx] < probMin {
		m.p[ctx] = probMin
	}
	if m.p[ctx] > probOne-probMin {
		m.p[ctx] = probOne - probMin
	}
}

// Encoder compresses a bit stream. Create with NewEncoder, feed bits with
// EncodeBit, and call Close to flush. The first output byte is a dummy
// zero, as in the classic LZMA range coder.
type Encoder struct {
	low       uint64
	rng       uint32
	cache     uint8
	cacheSize int
	out       []byte
}

// NewEncoder returns a ready encoder.
func NewEncoder() *Encoder {
	return &Encoder{rng: 0xffffffff, cacheSize: 1}
}

// EncodeBit encodes one bit under the model's context ctx.
func (e *Encoder) EncodeBit(m *Model, ctx int, bit int) {
	bound := (e.rng >> probBits) * uint32(m.p[ctx])
	if bit == 1 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	m.update(ctx, bit)
	for e.rng < 1<<24 {
		e.shiftLow()
		e.rng <<= 8
	}
}

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xff000000 || e.low>>32 != 0 {
		carry := uint8(e.low >> 32)
		b := e.cache
		for {
			e.out = append(e.out, b+carry)
			b = 0xff
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = uint8(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low & 0x00ffffff) << 8
}

// Close flushes the encoder and returns the compressed bytes.
func (e *Encoder) Close() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// Decoder decompresses a bit stream produced by Encoder. The caller must
// use the same model state and context sequence as the encoder.
type Decoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

// NewDecoder returns a decoder over data (including the leading dummy
// byte written by the encoder).
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{rng: 0xffffffff, in: data}
	d.next() // dummy byte
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *Decoder) next() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	return 0
}

// DecodeBit decodes one bit under the model's context ctx.
func (d *Decoder) DecodeBit(m *Model, ctx int) int {
	bound := (d.rng >> probBits) * uint32(m.p[ctx])
	var bit int
	if d.code < bound {
		d.rng = bound
		bit = 1
	} else {
		d.code -= bound
		d.rng -= bound
		bit = 0
	}
	m.update(ctx, bit)
	for d.rng < 1<<24 {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return bit
}
