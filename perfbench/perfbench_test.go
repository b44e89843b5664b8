package main

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/filter"
	"bsub/internal/filtertest"
	"bsub/internal/sim"
)

// TestWrappersPreserveReport runs a tracegen.Small fixture through every
// wrapper — sources, protocol and tracing backend — and requires the
// report of the unwrapped run, while every wrapped layer records spans.
func TestWrappersPreserveReport(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f, err := experiments.NewSmallFixture(seed)
		if err != nil {
			t.Fatal(err)
		}
		ttl := 2 * time.Hour
		cfg := sim.Config{Source: f.Trace.Source(), Interests: f.Interests, Messages: f.Messages, TTL: ttl, Seed: seed}
		want, err := sim.Run(cfg, core.New(f.BSubConfig(ttl)))
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var rec *recorder
			if traced {
				rec = &recorder{}
			}
			var lat []int64
			cfg.Source = f.Trace.Source()
			got, err := runBSub(cfg, f.BSubConfig(ttl), rec, &lat)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.rep, want) {
				t.Fatalf("seed %d traced=%v: wrapped report differs\n got %v\nwant %v", seed, traced, got.rep, want)
			}
			if len(lat) != want.Contacts {
				t.Fatalf("seed %d: %d latency samples for %d contacts", seed, len(lat), want.Contacts)
			}
			if !traced {
				continue
			}
			for _, o := range []op{opSourceNext, opMsgNext, opContact, opMessage, opEncode, opDecode, opMerge, opQuery, opAdvance} {
				if rec.calls[o].Load() == 0 {
					t.Errorf("seed %d: no spans recorded for op %d", seed, o)
				}
			}
		}
	}
}

// TestTracedBackendConformance holds the tracing backend to the packed
// TCBF's declared filter laws on random operation tapes.
func TestTracedBackendConformance(t *testing.T) {
	for _, parts := range []int{1, 3} {
		sub := filtertest.Subject{
			Name:       "traced-tcbf",
			Backend:    tracedBackend{inner: filter.Packed{}, rec: &recorder{}},
			Partitions: parts,
		}
		for seed := int64(1); seed <= 6; seed++ {
			tape := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(tape)
			filtertest.RunTape(t, sub, tape)
		}
	}
}

// TestFrameScanner counts message frames in a stream split at every
// possible point.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	frame := func(typ byte, body int) {
		hdr := make([]byte, frameHeaderLen)
		hdr[0] = typ
		binary.BigEndian.PutUint32(hdr[1:5], uint32(body))
		stream = append(append(stream, hdr...), make([]byte, body)...)
	}
	frame(1, 7)
	frame(frameMessage, 40)
	frame(10, 8)
	frame(frameMessage, 0)
	frame(8, 0)
	for cut := 0; cut <= len(stream); cut++ {
		var s frameScanner
		s.feed(stream[:cut])
		s.feed(stream[cut:])
		if s.msgs != 2 || !s.aligned() {
			t.Fatalf("cut %d: %d message frames, aligned %v; want 2, true", cut, s.msgs, s.aligned())
		}
	}
	var s frameScanner
	s.feed(stream[:len(stream)-3])
	if s.aligned() {
		t.Fatal("a truncated stream reads as aligned")
	}
}

// TestMeasureFailsOnDivergentOutputs: a repetition whose outputs differ
// from the first makes the result incorrect, traced or not.
func TestMeasureFailsOnDivergentOutputs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		calls := 0
		fn := func(seed int64, rec *recorder, lat []int64) (repOut, error) {
			calls++
			out := repOut{wall: time.Millisecond, work: 1, lat: append(lat, 1), outputs: "a", attempted: 1}
			if calls == 2 {
				out.outputs = "b"
			}
			return out, nil
		}
		res, problems, err := measure(fn, 1, time.Millisecond, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || len(problems) == 0 {
			t.Fatalf("traced=%v: divergent outputs passed", traced)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
