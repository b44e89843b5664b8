package tcbf

import (
	"fmt"
	"testing"
	"time"
)

// Hot-path benchmarks for the zero-allocation variants: precomputed-key
// queries, in-place merge targets, and the append/in-place wire codecs.
// BenchmarkEncodeFull/BenchmarkDecodeFull in encode_test.go cover the
// allocating counterparts.

func benchFilter(b *testing.B, keys int) *Filter {
	b.Helper()
	f := MustNew(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 0)
	for i := 0; i < keys; i++ {
		if err := f.Insert(fmt.Sprintf("key-%03d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func BenchmarkInsertPre(b *testing.B) {
	f := benchFilter(b, 0)
	pre := Precompute("bench-key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset(0)
		if err := f.InsertPre(pre, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainsPre(b *testing.B) {
	f := benchFilter(b, 32)
	pre := Precompute("key-007")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ContainsPre(pre, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMergeInPlace(b *testing.B) {
	f := benchFilter(b, 32)
	other := benchFilter(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.MMerge(other, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTo(b *testing.B) {
	f := benchFilter(b, 32)
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = f.EncodeTo(buf[:0], CountersFull)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	f := benchFilter(b, 32)
	data, err := f.Encode(CountersFull)
	if err != nil {
		b.Fatal(err)
	}
	dst := MustNew(f.Config(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.DecodeInto(data, time.Duration(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionedEncodeTo(b *testing.B) {
	p := MustNewPartitioned(Config{M: 256, K: 4, Initial: 10, DecayPerMinute: 1}, 4, 0)
	for i := 0; i < 64; i++ {
		if err := p.Insert(fmt.Sprintf("key-%03d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = p.EncodeTo(buf[:0], CountersFull)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeCopy is the fused counterpart of BenchmarkEncodeTo
// plus BenchmarkDecodeInto: the same filter handed to a scratch filter in
// memory, with the decoded state the wire would give.
func BenchmarkQuantizeCopy(b *testing.B) {
	f := benchFilter(b, 32)
	if err := f.Advance(90 * time.Second); err != nil { // non-trivial counters
		b.Fatal(err)
	}
	dst := MustNew(f.Config(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.QuantizeCopyTo(dst, CountersFull, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireSize(b *testing.B) {
	f := benchFilter(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WireSize(CountersNone); err != nil {
			b.Fatal(err)
		}
	}
}
