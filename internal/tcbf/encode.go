package tcbf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// CounterMode selects how much counter information accompanies a filter on
// the wire (Section VI-C's optimizations).
type CounterMode uint8

const (
	// CountersNone strips counters entirely: the receiver only needs
	// membership, e.g. a broker requesting messages from a producer. The
	// paper: "it does not need to report the counters, which cuts the size".
	CountersNone CounterMode = iota + 1
	// CountersUniform transmits a single counter value shared by all set
	// bits, e.g. a freshly built genuine filter whose counters all equal C.
	// The paper: "If all the counters of a filter are identical, we merely
	// save one value".
	CountersUniform
	// CountersFull transmits one quantized byte per set bit, the general
	// case for relay filters.
	CountersFull
)

const (
	wireMagic   = 0xB5
	flagBitmap  = 0x04 // bit-vector sent raw instead of as a location list
	counterBits = 8    // "We use a 1-byte counter" (Section VI-C)
	// maxWireM caps the bit-vector length a decoder will allocate for; a
	// hostile header must not be able to demand gigabytes. Far above any
	// realistic TCBF (the paper uses 256 bits).
	maxWireM = 1 << 24
)

var (
	// ErrCorrupt is returned by Decode for malformed input.
	ErrCorrupt = errors.New("tcbf: corrupt encoding")

	// ErrNotUniform is returned by Encode in CountersUniform mode when the
	// filter's set counters are not all equal: flattening them to a single
	// value would silently discard reinforcement state. Encode with
	// CountersFull instead.
	ErrNotUniform = errors.New("tcbf: counters not uniform")
)

// Encode serializes the filter's set bits (and, per mode, counters) into
// the compact wire format of Section VI-C. Instead of shipping the raw
// m-bit vector, the encoder writes the locations of the set bits, each in
// ceil(log2 m) bits, whenever that is smaller (n_set * ceil(log2 m) < m);
// otherwise it falls back to the raw bitmap. Counters are quantized to one
// byte relative to the filter's maximum counter.
//
// Pending decay is folded into the encoded counters on the fly, so the
// bytes always reflect the last Advance'd clock.
func (f *Filter) Encode(mode CounterMode) ([]byte, error) {
	return f.EncodeTo(nil, mode)
}

// EncodeTo appends the filter's wire encoding to dst and returns the
// extended slice — the same bytes Encode produces, but into a
// caller-reused buffer, so a warm hot path encodes without allocating.
//
// In CountersUniform mode the filter's set counters must actually be
// uniform; ErrNotUniform is returned otherwise.
//
//bsub:hotpath
func (f *Filter) EncodeTo(dst []byte, mode CounterMode) ([]byte, error) {
	st := f.scanWire()
	if err := checkMode(st, mode); err != nil {
		return nil, err
	}
	nSet, maxT := st.nSet, st.maxT
	pend := bcast(f.pendingTicks)

	locBits := bitsFor(f.M())
	useBitmap := nSet*locBits >= f.M()

	dst = append(dst, wireMagic)
	flags := byte(mode)
	if useBitmap {
		flags |= flagBitmap
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.M()))
	dst = append(dst, byte(f.K()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(nSet))

	if useBitmap {
		start := len(dst)
		for n := (f.M() + 7) / 8; n > 0; n-- {
			dst = append(dst, 0)
		}
		for wi, w := range f.words {
			if w == 0 {
				continue
			}
			nz := nzLanes(satSubWord(w, pend))
			// Lane flags sit at bits 0,16,32,48; fold them to bits 0..3.
			g := (nz | nz>>15 | nz>>30 | nz>>45) & 0xF
			p := wi * lanesPerWord
			dst[start+p/8] |= byte(g << (p % 8))
		}
	} else {
		// Pack each set position in locBits bits, MSB first, draining the
		// accumulator a byte at a time (locBits <= 24, so it never fills).
		var cur uint64
		ncur := 0
		for wi, w := range f.words {
			if w == 0 {
				continue
			}
			e := satSubWord(w, pend)
			for nz := nzLanes(e); nz != 0; nz &= nz - 1 {
				l := bits.TrailingZeros64(nz) / laneBits
				cur = cur<<locBits | uint64(wi*lanesPerWord+l)
				ncur += locBits
				for ncur >= 8 {
					ncur -= 8
					dst = append(dst, byte(cur>>ncur))
				}
			}
		}
		if ncur > 0 {
			dst = append(dst, byte(cur<<(8-ncur)))
		}
	}

	switch mode {
	case CountersNone:
	case CountersUniform:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(maxT)*f.quantum))
	case CountersFull:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(maxT)*f.quantum))
		qs := 255.0 / float64(maxT) // hoisted reciprocal; loop is empty when maxT == 0
		for _, w := range f.words {
			if w == 0 {
				continue
			}
			e := satSubWord(w, pend)
			for nz := nzLanes(e); nz != 0; nz &= nz - 1 {
				v := uint32(e>>uint(bits.TrailingZeros64(nz))) & laneMask
				dst = append(dst, quantizeTick(v, qs))
			}
		}
	}
	return dst, nil
}

// wireStats is what the encoder learns from one pass over the counters:
// the set-bit count, the maximum counter in ticks, and whether every set
// counter holds the same value.
type wireStats struct {
	nSet    int
	maxT    uint32
	uniform bool
}

// scanWire is the encoder's word-parallel stats pass, with pending decay
// applied on the fly: popcount of the lane flags counts set bits, a
// running maxWord accumulates the per-lane maximum, and uniformity is a
// whole-word compare against the first value broadcast into every
// non-zero lane.
//
//bsub:hotpath
func (f *Filter) scanWire() wireStats {
	// Branch-free: an all-zero word (or one that decays to zero) adds no
	// set bits, leaves the maximum alone, and compares equal. Words go in
	// pairs so that the running maximum's dependency chain is half as long.
	pend := bcast(f.pendingTicks)
	nSet := 0
	var accMax, firstW, diff uint64
	ws := f.words
	for i := 0; i < len(ws); i += 2 {
		e0 := satSubWord(ws[i], pend)
		var e1 uint64
		if i+1 < len(ws) {
			e1 = satSubWord(ws[i+1], pend)
		}
		nz0, nz1 := nzLanes(e0), nzLanes(e1)
		nSet += bits.OnesCount64(nz0) + bits.OnesCount64(nz1)
		accMax = maxWord(accMax, maxWord(e0, e1))
		if firstW == 0 && nz0|nz1 != 0 {
			e, nz := e0, nz0
			if nz0 == 0 {
				e, nz = e1, nz1
			}
			firstW = bcast(uint32(e>>uint(bits.TrailingZeros64(nz))) & laneMask)
		}
		diff |= e0 ^ firstW&(nz0*laneMask) | e1 ^ firstW&(nz1*laneMask)
	}
	maxT := uint32(accMax) & laneMask
	for s := laneBits; s < 64; s += laneBits {
		if v := uint32(accMax>>s) & laneMask; v > maxT {
			maxT = v
		}
	}
	return wireStats{nSet: nSet, maxT: maxT, uniform: diff == 0}
}

// statsFor is the stats pass a mode needs: CountersNone carries no
// counters, so only the set-bit count matters.
//
//bsub:hotpath
func (f *Filter) statsFor(mode CounterMode) wireStats {
	if mode == CountersNone {
		return wireStats{nSet: f.SetBits(), uniform: true}
	}
	return f.scanWire()
}

// wireLen returns the length of the encoding EncodeTo writes for a filter
// with stats st in a valid mode: the 11-byte header, the location list
// or bitmap, and the counters the mode carries.
//
//bsub:hotpath
func (f *Filter) wireLen(st wireStats, mode CounterMode) int {
	n := 11
	if locBits := bitsFor(f.M()); st.nSet*locBits >= f.M() {
		n += (f.M() + 7) / 8
	} else {
		n += (st.nSet*locBits + 7) / 8
	}
	switch mode {
	case CountersUniform:
		n += 8
	case CountersFull:
		n += 8 + st.nSet
	}
	return n
}

// checkMode reports the error EncodeTo returns for mode on a filter with
// stats st, or nil.
//
//bsub:hotpath
func checkMode(st wireStats, mode CounterMode) error {
	if mode < CountersNone || mode > CountersFull {
		return fmt.Errorf("tcbf: unknown counter mode %d", mode)
	}
	if mode == CountersUniform && !st.uniform {
		return fmt.Errorf("%w: %d set counters span multiple values", ErrNotUniform, st.nSet)
	}
	return nil
}

// wireHeader is the parsed fixed-size prefix of a filter encoding.
type wireHeader struct {
	mode   CounterMode
	bitmap bool
	m, k   int
	nSet   int
	body   []byte
}

// parseHeader validates the fixed 11-byte header and returns it with the
// remaining body bytes.
//
//bsub:hotpath
func parseHeader(data []byte) (wireHeader, error) {
	var h wireHeader
	if len(data) < 11 {
		return h, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != wireMagic {
		return h, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	flags := data[1]
	h.mode = CounterMode(flags &^ flagBitmap)
	if h.mode < CountersNone || h.mode > CountersFull {
		return h, fmt.Errorf("%w: unknown counter mode %d", ErrCorrupt, h.mode)
	}
	h.bitmap = flags&flagBitmap != 0
	h.m = int(binary.BigEndian.Uint32(data[2:6]))
	h.k = int(data[6])
	h.nSet = int(binary.BigEndian.Uint32(data[7:11]))
	if h.m > maxWireM {
		return h, fmt.Errorf("%w: bit-vector length %d exceeds decoder cap %d", ErrCorrupt, h.m, maxWireM)
	}
	if h.nSet > h.m {
		return h, fmt.Errorf("%w: %d set bits exceed vector length %d", ErrCorrupt, h.nSet, h.m)
	}
	h.body = data[11:]
	return h, nil
}

// Decode reconstructs a filter from data. The decay configuration (initial
// value and DF) is not on the wire — peers running the same protocol share
// it — so the caller supplies cfg's Initial and DecayPerMinute; M and K are
// read from the wire and must match cfg when cfg specifies them (non-zero).
// The decoded filter's clock starts at now and it is marked merged, since
// its provenance is unknown.
//
// Filters encoded with CountersNone decode with every set counter equal to
// cfg.Initial. Wire counter values are re-quantized to the receiver's tick
// scale (cfg.Initial/1024 per tick), clamped to [1 tick, 32*Initial].
func Decode(data []byte, cfg Config, now time.Duration) (*Filter, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if cfg.M != 0 && cfg.M != h.m {
		return nil, fmt.Errorf("%w: wire m=%d, expected %d", ErrCorrupt, h.m, cfg.M)
	}
	if cfg.K != 0 && cfg.K != h.k {
		return nil, fmt.Errorf("%w: wire k=%d, expected %d", ErrCorrupt, h.k, cfg.K)
	}
	cfg.M, cfg.K = h.m, h.k
	f, err := New(cfg, now)
	if err != nil {
		return nil, err
	}
	if err := f.decodeBody(h); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto reconstructs a filter from data in place, reusing f's counter
// slab instead of allocating a fresh filter — the hot-path variant of
// Decode for a scratch filter reused across contacts. The wire geometry
// must match f's (the protocol fixes m and k globally); on any error f is
// left in an unspecified state and must be Reset before reuse. As with
// Decode, f's clock restarts at now and f is marked merged.
//
//bsub:hotpath
func (f *Filter) DecodeInto(data []byte, now time.Duration) error {
	h, err := parseHeader(data)
	if err != nil {
		return err
	}
	if h.m != f.M() || h.k != f.K() {
		return fmt.Errorf("%w: wire geometry (%d,%d), filter has (%d,%d)",
			ErrCorrupt, h.m, h.k, f.M(), f.K())
	}
	f.Reset(now)
	return f.decodeBody(h)
}

// decodeBody fills a zeroed filter of matching geometry from a parsed
// encoding, marking it merged. It allocates nothing.
//
//bsub:hotpath
func (f *Filter) decodeBody(h wireHeader) error {
	f.merged = true
	body := h.body
	locEnd := 0
	if h.bitmap {
		locEnd = (h.m + 7) / 8
		if len(body) < locEnd {
			return fmt.Errorf("%w: truncated bitmap", ErrCorrupt)
		}
		if tail := h.m & 7; tail != 0 && body[locEnd-1]>>tail != 0 {
			return fmt.Errorf("%w: bitmap bits beyond vector length", ErrCorrupt)
		}
		found := 0
		for _, b := range body[:locEnd] {
			found += bits.OnesCount8(b)
		}
		if found != h.nSet {
			return fmt.Errorf("%w: bitmap has %d set bits, header says %d", ErrCorrupt, found, h.nSet)
		}
	} else {
		locEnd = (h.nSet*bitsFor(h.m) + 7) / 8
		if len(body) < locEnd {
			return fmt.Errorf("%w: truncated location list", ErrCorrupt)
		}
	}

	// Determine the counter value source before walking the positions, so
	// positions and counters stream through in one paired pass. The wire
	// carries counter units; they become ticks at the receiver's scale.
	uniformTick := uint32(0)
	scale := 0.0 // ticks per quantized-byte unit, CountersFull only
	counters := []byte(nil)
	switch h.mode {
	case CountersNone:
		uniformTick = initTicks
	case CountersUniform:
		if len(body) < locEnd+8 {
			return fmt.Errorf("%w: truncated uniform counter", ErrCorrupt)
		}
		u := math.Float64frombits(binary.BigEndian.Uint64(body[locEnd:]))
		// Zero is only legal on an empty filter: a "set" bit with a zero
		// counter is a contradiction (decay would have cleared the bit).
		if u < 0 || (u == 0 && h.nSet > 0) || math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("%w: bad counter value %g", ErrCorrupt, u)
		}
		if h.nSet > 0 {
			uniformTick = f.tickFromValue(u)
		}
	case CountersFull:
		if len(body) < locEnd+8+h.nSet {
			return fmt.Errorf("%w: truncated counters", ErrCorrupt)
		}
		maxC := math.Float64frombits(binary.BigEndian.Uint64(body[locEnd:]))
		if maxC < 0 || (maxC == 0 && h.nSet > 0) || math.IsNaN(maxC) || math.IsInf(maxC, 0) {
			return fmt.Errorf("%w: bad counter scale %g", ErrCorrupt, maxC)
		}
		counters = body[locEnd+8 : locEnd+8+h.nSet]
		scale = maxC / 255 * f.invQuantum
	}

	if h.bitmap {
		i := 0
		for bi := 0; bi < locEnd; bi++ {
			for b := body[bi]; b != 0; b &= b - 1 {
				p := uint32(bi*8 + bits.TrailingZeros8(b))
				if counters != nil {
					q := counters[i]
					i++
					if q == 0 {
						// The encoder reserves 0 for unset; a zero byte for
						// a set bit is always corruption.
						return fmt.Errorf("%w: zero counter byte for set bit %d", ErrCorrupt, p)
					}
					f.setLane(p, tickFromScaled(q, scale))
				} else {
					f.setLane(p, uniformTick)
				}
			}
		}
	} else {
		locBits := bitsFor(h.m)
		br := bitReader{data: body[:locEnd]}
		for i := 0; i < h.nSet; i++ {
			v, ok := br.read(locBits)
			if !ok || v >= uint64(h.m) {
				return fmt.Errorf("%w: bad location", ErrCorrupt)
			}
			if counters != nil {
				q := counters[i]
				if q == 0 {
					return fmt.Errorf("%w: zero counter byte for set bit %d", ErrCorrupt, v)
				}
				f.setLane(uint32(v), tickFromScaled(q, scale))
			} else {
				f.setLane(uint32(v), uniformTick)
			}
		}
	}
	return nil
}

// WireSize returns the number of bytes Encode would produce in the given
// mode — what the simulator charges against a contact's bandwidth budget —
// computed from the encoder's stats pass alone, without encoding. It
// fails exactly when Encode would.
//
//bsub:hotpath
func (f *Filter) WireSize(mode CounterMode) (int, error) {
	st := f.statsFor(mode)
	if err := checkMode(st, mode); err != nil {
		return 0, err
	}
	return f.wireLen(st, mode), nil
}

// QuantizeCopyTo leaves dst in exactly the state
// dst.DecodeInto(f.EncodeTo(nil, mode), now) would: the same counter
// words (quantized and re-scaled as the wire does), clock at now, no
// pending decay, and marked merged. It returns the encoding's length but
// writes no bytes, which is what lets an adapter whose two contact sides
// share an address space skip the wire encoding while the receiver still
// sees the wire's 1-byte quantization. It fails when Encode would, or
// when dst's geometry differs from f's (as DecodeInto would); on error
// dst is unspecified and must be Reset before reuse. dst must not be f.
//
//bsub:hotpath
func (f *Filter) QuantizeCopyTo(dst *Filter, mode CounterMode, now time.Duration) (int, error) {
	st := f.statsFor(mode)
	if err := f.quantizeCopy(dst, st, mode, now); err != nil {
		return 0, err
	}
	return f.wireLen(st, mode), nil
}

// quantizeCopy is QuantizeCopyTo given f's stats pass st.
//
//bsub:hotpath
func (f *Filter) quantizeCopy(dst *Filter, st wireStats, mode CounterMode, now time.Duration) error {
	if err := checkMode(st, mode); err != nil {
		return err
	}
	if dst.M() != f.M() || dst.K() != f.K() {
		return fmt.Errorf("%w: (%d,%d) vs (%d,%d)", ErrGeometry, f.M(), f.K(), dst.M(), dst.K())
	}
	dst.Reset(now)
	dst.merged = true
	if st.nSet == 0 {
		return nil
	}
	pend := bcast(f.pendingTicks)
	switch mode {
	case CountersNone, CountersUniform:
		// Every set lane decodes to one tick value: write it into all of a
		// word's set lanes at once.
		t := uint64(initTicks)
		if mode == CountersUniform {
			t = uint64(dst.tickFromValue(float64(st.maxT) * f.quantum))
		}
		for i, w := range f.words {
			if w != 0 {
				dst.words[i] = nzLanes(satSubWord(w, pend)) * t
			}
		}
	case CountersFull:
		// The encoder's byte per lane, then the decoder's re-scale, with the
		// same float operations in the same order as the two halves of the
		// wire path. A filter's lanes share few distinct values, so a small
		// direct-mapped memo of value → tick skips most of the float work.
		qs := 255.0 / float64(st.maxT)
		scale := float64(st.maxT) * f.quantum / 255 * dst.invQuantum
		var memo [32]struct{ v, t uint32 } // v == 0: empty (set lanes are >= 1)
		for i, w := range f.words {
			if w == 0 {
				continue
			}
			e := satSubWord(w, pend)
			var out uint64
			for nz := nzLanes(e); nz != 0; nz &= nz - 1 {
				sh := uint(bits.TrailingZeros64(nz))
				v := uint32(e>>sh) & laneMask
				m := &memo[v&31]
				if m.v != v {
					m.v, m.t = v, tickFromScaled(quantizeTick(v, qs), scale)
				}
				out |= uint64(m.t) << sh
			}
			dst.words[i] = out
		}
	}
	return nil
}

// PaperWireBits returns the Section VI-C analytic size, in bits, of a
// filter with nSet set bits over an m-bit vector: the set-bit locations
// (ceil(log2 m) bits each, or the raw bitmap when smaller) plus counters
// per mode. It excludes framing overhead and is used by the memory
// experiment (M1) to match the paper's accounting.
func PaperWireBits(nSet, m int, mode CounterMode) int {
	locBits := nSet * bitsFor(m)
	if locBits >= m {
		locBits = m
	}
	switch mode {
	case CountersNone:
		return locBits
	case CountersUniform:
		return locBits + counterBits
	default:
		return locBits + nSet*counterBits
	}
}

// quantizeTick maps a tick count v in [1, max] to a wire byte in [1, 255]
// by rounding v*255/max, reserving 0 for unset so that a set bit never
// round-trips to unset. qs is the caller-hoisted reciprocal 255/max, which
// turns the per-byte division into a multiply. The float path is exact:
// v*255 < 2^23 is representable, IEEE division is correctly rounded, and
// the quotient (denominator <= laneMax) is never within an ulp of a
// half-integer except when exactly equal — where truncating v*qs + 0.5
// rounds half up, matching the integer formula (v*510+max)/(2*max).
//
//bsub:hotpath
func quantizeTick(v uint32, qs float64) byte {
	q := uint32(float64(v)*qs + 0.5)
	if q < 1 {
		q = 1
	}
	return byte(q)
}

// tickFromValue converts a wire counter value (in counter units) to this
// filter's tick scale, clamping to [1, laneMax]: the bit is set on the
// wire, so it must stay set after re-quantization.
//
//bsub:hotpath
func (f *Filter) tickFromValue(c float64) uint32 {
	// c >= 0 here, so truncating c*invQuantum + 0.5 is round-half-up —
	// math.Round without its negative-zero branches.
	t := c*f.invQuantum + 0.5
	if t < 1 {
		return 1
	}
	if t > laneMax {
		return laneMax
	}
	return uint32(t)
}

// tickFromScaled converts a quantized wire byte to ticks given the
// precomputed ticks-per-byte-unit scale, clamping like tickFromValue.
//
//bsub:hotpath
func tickFromScaled(q byte, scale float64) uint32 {
	// q and scale are non-negative, so truncation after +0.5 rounds half up.
	t := float64(q)*scale + 0.5
	if t < 1 {
		return 1
	}
	if t > laneMax {
		return laneMax
	}
	return uint32(t)
}

// bitsFor returns ceil(log2 m) for m >= 1, with a floor of 1 bit.
//
//bsub:hotpath
func bitsFor(m int) int {
	b := 0
	for v := m - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

type bitReader struct {
	data []byte
	pos  int // bit position
}

// read extracts the next n bits MSB-first, a byte-sized chunk at a time
// rather than bit-by-bit.
//
//bsub:hotpath
func (r *bitReader) read(n int) (uint64, bool) {
	if r.pos+n > len(r.data)*8 {
		return 0, false
	}
	var v uint64
	for got := 0; got < n; {
		avail := 8 - r.pos&7
		take := n - got
		if take > avail {
			take = avail
		}
		chunk := uint64(r.data[r.pos>>3]>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += take
		got += take
	}
	return v, true
}
