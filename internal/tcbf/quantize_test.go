package tcbf

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// quantizeModes covers the three wire modes plus two invalid ones, whose
// errors the fused copy must reproduce too.
var quantizeModes = []CounterMode{CountersNone, CountersUniform, CountersFull, 0, CountersFull + 1}

// opsFilter drives a partitioned filter through an op stream: direct
// inserts, A-merges (repeated until lanes saturate), M-merges, short and
// long decay advances (down to fully decayed partitions), and DF retunes.
// Each byte is one op; the low three bits pick it, the rest is its argument.
func opsFilter(ops []byte, h int, df float64) (*Partitioned, time.Duration) {
	cfg := Config{M: 64, K: 3, Initial: 10, DecayPerMinute: df}
	now := time.Duration(0)
	p := MustNewPartitioned(cfg, h, now)
	donor := MustNewPartitioned(cfg, h, now)
	fill := func(arg int) {
		donor.Reset(now)
		_ = donor.Insert(fmt.Sprintf("k%d", arg%23), now)
	}
	for _, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case 0:
			if err := p.Insert(fmt.Sprintf("k%d", arg%23), now); errors.Is(err, ErrMerged) {
				fill(arg)
				_ = p.AMerge(donor, now)
			}
		case 1:
			fill(arg)
			_ = p.AMerge(donor, now)
		case 2:
			fill(arg)
			_ = p.MMerge(donor, now)
		case 3:
			fill(arg)
			for i := 0; i < arg+8; i++ {
				_ = p.AMerge(donor, now)
			}
		case 4:
			now += time.Duration(arg) * 7 * time.Second
			_ = p.Advance(now)
		case 5:
			now += time.Duration(arg) * time.Minute
			_ = p.Advance(now)
		case 6:
			_ = p.SetDecayFactor(df*float64(arg%4), now)
		case 7:
			now += time.Duration(arg) * time.Millisecond // sub-tick debt
		}
	}
	return p, now
}

// filterDiff names the first field in which two filters' states differ,
// or returns "" when they are identical.
func filterDiff(a, b *Filter) string {
	switch {
	case !slices.Equal(a.words, b.words):
		return fmt.Sprintf("words %x vs %x", a.words, b.words)
	case a.last != b.last:
		return fmt.Sprintf("clock %v vs %v", a.last, b.last)
	case a.merged != b.merged:
		return fmt.Sprintf("merged %v vs %v", a.merged, b.merged)
	case a.pendingNanos != b.pendingNanos || a.pendingTicks != b.pendingTicks:
		return fmt.Sprintf("pending (%d ns, %d ticks) vs (%d ns, %d ticks)",
			a.pendingNanos, a.pendingTicks, b.pendingNanos, b.pendingTicks)
	case a.cfg != b.cfg || a.tickNanos != b.tickNanos:
		return fmt.Sprintf("config %+v/%d vs %+v/%d", a.cfg, a.tickNanos, b.cfg, b.tickNanos)
	}
	return ""
}

// checkQuantizeCopy asserts, for src in every mode, that WireSize equals
// the encoding's length and that QuantizeCopyTo leaves a dirty scratch
// filter bit-identical to DecodeInto of the encoding — for the
// partitioned filter and for each partition as a plain filter. dirty
// builds a fresh scratch filter with unrelated state (a different clock,
// DF and decay debt), so the copy must overwrite everything it owns.
func checkQuantizeCopy(t *testing.T, src *Partitioned, dirty func() *Partitioned, now time.Duration) {
	t.Helper()
	for _, mode := range quantizeModes {
		enc, encErr := src.EncodeTo(nil, mode)
		size, sizeErr := src.WireSize(mode)
		viaWire, fused := dirty(), dirty()
		copied, copyErr := src.QuantizeCopyTo(fused, mode, now)
		if (encErr != nil) != (sizeErr != nil) || (encErr != nil) != (copyErr != nil) {
			t.Fatalf("mode %d: encode err %v, WireSize err %v, copy err %v", mode, encErr, sizeErr, copyErr)
		}
		if encErr == nil {
			if size != len(enc) || copied != len(enc) {
				t.Fatalf("mode %d: WireSize %d, copy %d, encoding %d bytes", mode, size, copied, len(enc))
			}
			if err := viaWire.DecodeInto(enc, now); err != nil {
				t.Fatalf("mode %d: decode: %v", mode, err)
			}
			for i := range src.parts {
				if d := filterDiff(&fused.parts[i], &viaWire.parts[i]); d != "" {
					t.Fatalf("mode %d partition %d: fused copy differs from the wire: %s", mode, i, d)
				}
			}
		}

		for i, f := range src.parts {
			enc, encErr := f.EncodeTo(nil, mode)
			size, sizeErr := f.WireSize(mode)
			viaWire, fused := &dirty().parts[0], &dirty().parts[0]
			copied, copyErr := f.QuantizeCopyTo(fused, mode, now)
			if (encErr != nil) != (sizeErr != nil) || (encErr != nil) != (copyErr != nil) {
				t.Fatalf("mode %d filter %d: encode err %v, WireSize err %v, copy err %v", mode, i, encErr, sizeErr, copyErr)
			}
			if encErr != nil {
				continue
			}
			if size != len(enc) || copied != len(enc) {
				t.Fatalf("mode %d filter %d: WireSize %d, copy %d, encoding %d bytes", mode, i, size, copied, len(enc))
			}
			if err := viaWire.DecodeInto(enc, now); err != nil {
				t.Fatalf("mode %d filter %d: decode: %v", mode, i, err)
			}
			if d := filterDiff(fused, viaWire); d != "" {
				t.Fatalf("mode %d filter %d: fused copy differs from the wire: %s", mode, i, d)
			}
		}
	}
}

// dirtyScratch returns a builder of scratch filters carrying unrelated
// state: other keys, another DF, an earlier clock and pending decay.
func dirtyScratch(h int) func() *Partitioned {
	return func() *Partitioned {
		p, _ := opsFilter([]byte{0, 8, 16, 1 | 5<<3, 4 | 9<<3, 7 | 3<<3}, h, 0.7)
		return p
	}
}

// TestQuantizeCopyMatchesWire is the differential test of the fused
// quantize-copy against EncodeTo→DecodeInto over random filters.
func TestQuantizeCopyMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 400; iter++ {
		ops := make([]byte, rng.Intn(40))
		rng.Read(ops)
		h := 1 + rng.Intn(4)
		df := []float64{0, 0.05, 1, 10}[rng.Intn(4)]
		src, now := opsFilter(ops, h, df)
		checkQuantizeCopy(t, src, dirtyScratch(h), now+time.Duration(rng.Intn(3))*time.Second)
	}
}

// TestQuantizeCopyEdges pins the edge cases by name: empty, fully decayed,
// saturated, and uniform filters, and mismatched geometry.
func TestQuantizeCopyEdges(t *testing.T) {
	empty, _ := opsFilter(nil, 3, 1)
	decayed, now := opsFilter([]byte{0, 8, 5 | 31<<3}, 2, 10)
	if decayed.SetBits() != 0 {
		t.Fatalf("decayed filter still has %d set bits", decayed.SetBits())
	}
	saturated, _ := opsFilter([]byte{3 | 31<<3, 3 | 31<<3, 0 | 2<<3}, 1, 1)
	uniform, _ := opsFilter([]byte{0, 8, 16, 24}, 2, 1)
	for name, src := range map[string]*Partitioned{
		"empty": empty, "decayed": decayed, "saturated": saturated, "uniform": uniform,
	} {
		t.Run(name, func(t *testing.T) {
			checkQuantizeCopy(t, src, dirtyScratch(src.Partitions()), now)
		})
	}
	if _, err := uniform.WireSize(CountersUniform); err != nil {
		t.Fatalf("freshly inserted filter should encode uniformly: %v", err)
	}
	if _, err := uniform.QuantizeCopyTo(MustNewPartitioned(uniform.Config(), 3, 0), CountersFull, 0); !errors.Is(err, ErrGeometry) {
		t.Fatalf("partition-count mismatch: got %v, want ErrGeometry", err)
	}
	other := MustNew(Config{M: 128, K: 3, Initial: 10}, 0)
	if _, err := uniform.parts[0].QuantizeCopyTo(other, CountersFull, 0); !errors.Is(err, ErrGeometry) {
		t.Fatalf("geometry mismatch: got %v, want ErrGeometry", err)
	}
}

// FuzzQuantizeCopy extends the differential test to fuzzer-chosen op
// streams, partition counts, and decay factors.
func FuzzQuantizeCopy(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0, 8, 16, 24}, uint8(2), uint8(3))
	f.Add([]byte{3 | 31<<3, 3 | 31<<3, 0 | 2<<3}, uint8(1), uint8(2))
	f.Add([]byte{0, 8, 5 | 31<<3}, uint8(2), uint8(4))
	f.Add([]byte{0, 1 | 4<<3, 4 | 20<<3, 2 | 9<<3, 7 | 30<<3, 6 | 3<<3, 4 | 5<<3}, uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, h, dfSel uint8) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		parts := 1 + int(h%4)
		df := []float64{0, 0.05, 1, 10, 0.3}[dfSel%5]
		src, now := opsFilter(ops, parts, df)
		checkQuantizeCopy(t, src, dirtyScratch(parts), now)
	})
}
