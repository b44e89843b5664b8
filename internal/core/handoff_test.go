package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bsub/internal/engine"
	"bsub/internal/filter"
	"bsub/internal/metrics"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

// bytesOnly wraps a backend so its filters lack the filter.Quantizer
// capability: the engine's Hand* steps then take the byte path, as the
// live node does.
type bytesOnly struct{ filter.Backend }

func (b bytesOnly) New(cfg tcbf.Config, partitions int, now time.Duration) (filter.Filter, error) {
	f, err := b.Backend.New(cfg, partitions, now)
	return wireOnly{f}, err
}

// wireOnly hides everything but the filter.Filter methods, unwrapping
// peers for the operations whose backends check the peer's type.
type wireOnly struct{ filter.Filter }

func (w wireOnly) AMerge(o filter.Filter, now time.Duration) error {
	return w.Filter.AMerge(o.(wireOnly).Filter, now)
}

func (w wireOnly) MMerge(o filter.Filter, now time.Duration) error {
	return w.Filter.MMerge(o.(wireOnly).Filter, now)
}

func (w wireOnly) PreferencePre(k tcbf.PreKey, peer filter.Filter, now time.Duration) (float64, error) {
	return w.Filter.PreferencePre(k, peer.(wireOnly).Filter, now)
}

// TestHandOffMatchesBytePath is the simulator-level differential for the
// in-memory filter hand-off: whole runs with the packed backend (relay
// filters quantize-copied, interest filters left undecoded where nothing
// can match) and with the same backend forced onto the bytes must agree
// on every metric, on the broker census, and on every node's final relay
// filter and stores. Tight bandwidth makes budgets refuse transfers
// mid-contact, so the charges and their order are covered too.
func TestHandOffMatchesBytePath(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.Small(21))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(21))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := workload.GenerateMessages(ks, rates, tr.Span(), rng)
	// With few producers most nodes hold no message of their own, so
	// servers often hold only carried copies, or nothing at all.
	var sparse []workload.Message
	for _, m := range msgs {
		if m.Origin < 3 {
			sparse = append(sparse, m)
		}
	}

	variants := map[string]func(*Config){
		"default":    func(*Config) {},
		"additive":   func(c *Config) { c.BrokerMerge = engine.BrokerMergeAdditive },
		"partitions": func(c *Config) { c.RelayPartitions = 3 },
		"online-df":  func(c *Config) { c.DFMode = engine.DFOnlineEq5 },
	}
	for name, tweak := range variants {
		for _, load := range []struct {
			bps  int
			msgs []workload.Message
		}{{0, msgs}, {300, msgs}, {30, msgs}, {0, sparse}, {30, sparse}} {
			bps := load.bps
			cfg := DefaultConfig(0.05)
			tweak(&cfg)
			run := func(backend filter.Backend) (*BSub, metrics.Report) {
				c := cfg
				c.Backend = backend
				p := New(c)
				rep, err := sim.Run(sim.Config{
					Trace: tr, Interests: interests, Messages: load.msgs,
					TTL: 6 * time.Hour, Seed: 21, BandwidthBps: bps,
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				return p, rep
			}
			fused, fusedRep := run(filter.Packed{})
			wire, wireRep := run(bytesOnly{filter.Packed{}})
			if !reflect.DeepEqual(fusedRep, wireRep) {
				t.Fatalf("%s/%d bps: reports differ\nfused: %+v\nbytes: %+v", name, bps, fusedRep, wireRep)
			}
			if fusedRep.Delivered == 0 || fusedRep.ControlBytes == 0 {
				t.Fatalf("%s/%d bps: the run exercised no replication or control traffic: %+v", name, bps, fusedRep)
			}
			if f, w := fused.MeanBrokerFraction(), wire.MeanBrokerFraction(); f != w {
				t.Fatalf("%s/%d bps: broker fraction %v vs %v", name, bps, f, w)
			}
			for id := 0; id < tr.Nodes; id++ {
				fe, we := fused.Engine(trace.NodeID(id)), wire.Engine(trace.NodeID(id))
				if !reflect.DeepEqual(fe.CarriedIDs(), we.CarriedIDs()) ||
					!reflect.DeepEqual(fe.ProducedIDs(), we.ProducedIDs()) ||
					!reflect.DeepEqual(fe.DeliveredIDs(), we.DeliveredIDs()) {
					t.Fatalf("%s/%d bps: node %d stores differ", name, bps, id)
				}
				if !reflect.DeepEqual(fused.nodes[id].oracle, wire.nodes[id].oracle) {
					t.Fatalf("%s/%d bps: node %d oracles differ", name, bps, id)
				}
				fr, wr := fe.Relay(), we.Relay()
				if (fr == nil) != (wr == nil) {
					t.Fatalf("%s/%d bps: node %d broker role differs", name, bps, id)
				}
				if fr == nil {
					continue
				}
				fb, err := fr.Encode(tcbf.CountersFull)
				if err != nil {
					t.Fatal(err)
				}
				wb, err := wr.Encode(tcbf.CountersFull)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fb, wb) || fr.Config() != wr.Config() {
					t.Fatalf("%s/%d bps: node %d relay filters differ", name, bps, id)
				}
			}
		}
	}
}
