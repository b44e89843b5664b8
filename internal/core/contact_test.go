//go:build !race

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// topicEnv is a fakeEnv whose nodes subscribe to distinct topics.
type topicEnv struct{ fakeEnv }

func (e *topicEnv) Interest(n trace.NodeID) workload.Key { return topic(int(n)) }
func (e *topicEnv) InterestSet(n trace.NodeID) []workload.Key {
	return []workload.Key{topic(int(n))}
}

func topic(i int) workload.Key { return workload.Key(fmt.Sprintf("topic-%02d", i)) }

// warmContact builds a three-node B-SUB run — brokers 0 and 1, consumer 2 —
// whose relay filters hold 32 topics, whose brokers carry 16 copies, and
// whose consumer has produced 8 messages, and returns one contact between
// a and b at a fixed time. A few contacts settle every store (copies
// forwarded, replication budgets spent, deliveries deduplicated), after
// which each contact repeats the same work: elections, the relay
// exchange with its forwarding decisions and merge, or the genuine
// filter push, then all four pulls.
func warmContact(tb testing.TB, a, b trace.NodeID) func() {
	tb.Helper()
	const nodes = 3
	now := time.Hour
	env := &topicEnv{fakeEnv{nodes: nodes, now: now, ttl: 100 * time.Hour}}
	p := New(DefaultConfig(0.01))
	if err := p.Init(env, rand.New(rand.NewSource(1))); err != nil {
		tb.Fatal(err)
	}
	for _, br := range []trace.NodeID{0, 1} {
		n := p.nodes[br]
		n.eng.Promote(now)
		p.syncRole(n, now)
		for i := 0; i < 32; i++ {
			if err := n.eng.Relay().Insert(string(topic(i)), now); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		m := workload.Message{ID: 100 + i, Key: topic(i), Origin: 2, Size: 100, CreatedAt: now}
		p.nodes[i%2].eng.AcceptCarried(m, nil, now)
	}
	for i := 0; i < 8; i++ {
		p.OnMessage(env, workload.Message{ID: 200 + i, Key: topic(3 * i), Origin: 2, Size: 100, CreatedAt: now})
	}
	budget := sim.NewBudget(math.MaxInt) // never runs out
	contact := func() { p.OnContact(env, a, b, budget) }
	for i := 0; i < 4; i++ {
		contact()
	}
	return contact
}

var coreContacts = []struct {
	name string
	a, b trace.NodeID
}{
	{"broker-broker", 0, 1},
	{"broker-consumer", 1, 2},
}

// TestCoreContactAllocationFree pins warm simulator contacts — the
// adapter, the engine session, the in-memory filter hand-off and the
// dense oracle together — at zero heap allocations, for a broker-broker
// and a broker-consumer meeting.
func TestCoreContactAllocationFree(t *testing.T) {
	for _, c := range coreContacts {
		t.Run(c.name, func(t *testing.T) {
			contact := warmContact(t, c.a, c.b)
			if avg := testing.AllocsPerRun(50, contact); avg != 0 {
				t.Errorf("warm contact: %g allocs per run, want 0", avg)
			}
		})
	}
}

// BenchmarkCoreContact is the core layer of the performance ledger: one
// warm OnContact through the simulator adapter, per meeting kind.
func BenchmarkCoreContact(b *testing.B) {
	for _, c := range coreContacts {
		b.Run(c.name, func(b *testing.B) {
			contact := warmContact(b, c.a, c.b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				contact()
			}
		})
	}
}
