package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"bsub/internal/tcbf"
	"bsub/internal/workload"
)

// meter is a Budget that logs every Spend request and its verdict.
type meter struct {
	left int
	log  []string
}

func (m *meter) Spend(n int) bool {
	ok := n <= m.left
	if ok {
		m.left -= n
	}
	m.log = append(m.log, fmt.Sprintf("%d:%v", n, ok))
	return ok
}

// world is one copy of a small population for the Hand* differential.
type world struct {
	nodes []*Node
	trail []string      // what each contact moved, in order
	cache *SessionCache // where contacts draw session arenas; nil: unpooled
}

func newWorld(t *testing.T, seed int64, cfg Config) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{}
	keys := []workload.Key{"a", "b", "c", "d", "e"}
	for id := 0; id < 6; id++ {
		n := mustNode(t, id, cfg, 10*time.Hour)
		n.Subscribe(keys[rng.Intn(len(keys))])
		if rng.Intn(3) == 0 {
			n.Subscribe(keys[rng.Intn(len(keys))])
		}
		w.nodes = append(w.nodes, n)
	}
	for i := 0; i < 12; i++ {
		origin := rng.Intn(2) // few producers: most nodes serve carried copies only
		w.nodes[origin].AddProduced(workload.Message{
			ID: i, Key: keys[rng.Intn(len(keys))], Origin: origin, Size: 20 + rng.Intn(60),
			CreatedAt: time.Duration(rng.Intn(60)) * time.Minute,
		}, nil)
	}
	return w
}

// claimed commits a claim and lands its copy at the receiver, as the
// simulator adapter does.
func (w *world) claimed(c *Claim, ok bool, to *Node, from NodeID, carried bool, now time.Duration) bool {
	if !ok || c == nil {
		return ok
	}
	c.Commit()
	m := c.Msg()
	if carried {
		to.AcceptCarried(m, nil, now)
	} else {
		to.ReceiveDelivery(m, from, now)
	}
	w.trail = append(w.trail, fmt.Sprintf("%d->%d:%d", from, to.ID(), m.ID))
	return true
}

// contact runs one simulator-style contact, over the Hand* steps or over
// the byte steps they replace.
func (w *world) contact(t *testing.T, a, b *Node, budget Budget, now time.Duration, hand bool) {
	sa, sb := a.BeginContact(w.cache, budget, now), b.BeginContact(w.cache, budget, now)
	defer sb.Release()
	defer sa.Release()
	sa.SetPeer(sb.Hello())
	sb.SetPeer(sa.Hello())
	actA, actB := sa.Elect(), sb.Elect()
	sa.Apply(actA, actB)
	sb.Apply(actB, actA)
	sent := 0
	var err error
	if sa.RelayExchange() {
		if hand {
			sent, err = HandRelays(sa, sb)
		} else {
			da, errA := sa.RelayOut()
			db, errB := sb.RelayOut()
			if errA == nil && errB == nil && da != nil && db != nil {
				sent = len(da) + len(db)
				if err = sa.SetPeerRelay(db); err == nil {
					err = sb.SetPeerRelay(da)
				}
			}
		}
		w.trail = append(w.trail, fmt.Sprintf("relays %d %v", sent, err))
		if sent > 0 && err == nil {
			for _, p := range [][2]*Session{{sa, sb}, {sb, sa}} {
				cands, err := p[0].ForwardCandidates()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cands {
					cl, ok := p[0].ClaimCarried(c.Msg.ID)
					if !w.claimed(cl, ok, p[1].n, p[0].n.ID(), true, now) {
						break
					}
				}
			}
			if err := sa.MergeRelay(); err != nil {
				t.Fatal(err)
			}
			if err := sb.MergeRelay(); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, p := range [][2]*Session{{sa, sb}, {sb, sa}} {
			if p[0].SendsGenuine() {
				data, err := p[0].GenuineOut()
				if err != nil {
					t.Fatal(err)
				}
				if err := p[1].AbsorbGenuine(data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, p := range [][2]*Session{{sa, sb}, {sb, sa}} {
		asker, server := p[0], p[1]
		var matches []Transfer
		sent, err = 0, nil
		if hand {
			sent, matches, err = HandInterest(asker, server)
		} else if data, errOut := asker.InterestOut(); errOut == nil && data != nil {
			sent = len(data)
			matches, err = server.DeliveryMatches(data)
		}
		w.trail = append(w.trail, fmt.Sprintf("interest %d %v %d", sent, err, len(matches)))
		for _, m := range matches {
			var cl *Claim
			var ok bool
			if m.Carried {
				cl, ok = server.ClaimCarried(m.Msg.ID)
			} else {
				cl, ok = server.ClaimDirect(m.Msg.ID)
			}
			if !w.claimed(cl, ok, asker.n, server.n.ID(), false, now) {
				break
			}
		}
		if !asker.SelfBroker() {
			continue
		}
		sent, matches, err = 0, nil, nil
		if hand {
			sent, matches, err = HandAdvert(asker, server)
		} else if data, errOut := asker.RelayAdvertOut(); errOut == nil && data != nil {
			sent = len(data)
			matches, err = server.ReplicationMatches(data)
		}
		w.trail = append(w.trail, fmt.Sprintf("advert %d %v %d", sent, err, len(matches)))
		for _, m := range matches {
			cl, ok := server.ClaimReplication(m.Msg.ID)
			if !w.claimed(cl, ok, asker.n, server.n.ID(), true, now) {
				break
			}
		}
	}
}

// TestHandStepsMatchByteSteps is the engine-level differential for the
// in-process hand-off: two copies of one population meet in the same
// random contact sequence, one over HandRelays/HandInterest/HandAdvert and
// one over the byte steps, under budgets from generous to starved. Every
// budget charge (size, order, verdict), every copy moved, and every node's
// final state must agree.
func TestHandStepsMatchByteSteps(t *testing.T) {
	for _, merge := range []BrokerMergeMode{BrokerMergeMax, BrokerMergeAdditive} {
		for seed := int64(1); seed <= 40; seed++ {
			cfg := DefaultConfig(0.05)
			cfg.BrokerMerge = merge
			cfg.RelayPartitions = int(seed % 3)
			hand, wire := newWorld(t, seed, cfg), newWorld(t, seed, cfg)
			rng := rand.New(rand.NewSource(seed))
			now := time.Duration(0)
			for c := 0; c < 200; c++ {
				now += time.Duration(rng.Intn(20)) * time.Minute
				i, j := rng.Intn(6), rng.Intn(5)
				if j >= i {
					j++
				}
				left := []int{1 << 20, 400, 120, 40}[rng.Intn(4)]
				mh, mw := &meter{left: left}, &meter{left: left}
				hand.contact(t, hand.nodes[i], hand.nodes[j], mh, now, true)
				wire.contact(t, wire.nodes[i], wire.nodes[j], mw, now, false)
				if !reflect.DeepEqual(mh.log, mw.log) {
					t.Fatalf("merge %d seed %d contact %d: budget charges differ\nhand:  %v\nbytes: %v", merge, seed, c, mh.log, mw.log)
				}
				if !reflect.DeepEqual(hand.trail, wire.trail) {
					t.Fatalf("merge %d seed %d contact %d: transfers differ\nhand:  %v\nbytes: %v", merge, seed, c, hand.trail, wire.trail)
				}
			}
			requireSameState(t, fmt.Sprintf("merge %d seed %d", merge, seed), hand, wire)
		}
	}
}

// requireSameState fails unless every node of a and b holds the same
// carried and delivered messages, role, produced copy counts, and relay
// filter.
func requireSameState(t *testing.T, label string, a, b *world) {
	t.Helper()
	for id := range a.nodes {
		h, w := a.nodes[id], b.nodes[id]
		if !reflect.DeepEqual(h.CarriedIDs(), w.CarriedIDs()) || !reflect.DeepEqual(h.DeliveredIDs(), w.DeliveredIDs()) ||
			h.IsBroker() != w.IsBroker() {
			t.Fatalf("%s: node %d state differs", label, id)
		}
		for _, m := range h.ProducedIDs() {
			if h.ProducedCopies(m) != w.ProducedCopies(m) {
				t.Fatalf("%s: node %d copies of %d differ", label, id, m)
			}
		}
		if h.Relay() == nil {
			continue
		}
		hb, err := h.Relay().Encode(tcbf.CountersFull)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := w.Relay().Encode(tcbf.CountersFull)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hb, wb) {
			t.Fatalf("%s: node %d relay filters differ", label, id)
		}
	}
}

// TestSessionCacheRebindsAcrossGeometry shares one SessionCache between two
// populations with different FilterM. Every contact in the second
// population draws the arenas a contact in the first has just released, so
// each draw rebinds an arena to a node of the other geometry, which must
// drop its scratch filters and rebuild them at the new node's. The pooled
// contacts must charge the same budget, move the same copies, and leave the
// same state as the same contacts on fresh, unpooled sessions.
func TestSessionCacheRebindsAcrossGeometry(t *testing.T) {
	small, big := DefaultConfig(0.05), DefaultConfig(0.05)
	small.FilterM = 128
	big.FilterM = 512
	cache := NewSessionCache()
	other := newWorld(t, 1, small)
	pooled, fresh := newWorld(t, 2, big), newWorld(t, 2, big)
	other.cache, pooled.cache = cache, cache
	for _, w := range []*world{other, pooled, fresh} {
		for _, n := range w.nodes {
			n.Promote(0)
		}
	}
	rng := rand.New(rand.NewSource(2))
	now := time.Duration(0)
	for c := 0; c < 100; c++ {
		now += time.Duration(rng.Intn(20)) * time.Minute
		i, j := rng.Intn(6), rng.Intn(5)
		if j >= i {
			j++
		}
		other.contact(t, other.nodes[i], other.nodes[j], Unlimited{}, now, false)
		mp, mf := &meter{left: 1 << 20}, &meter{left: 1 << 20}
		pooled.contact(t, pooled.nodes[i], pooled.nodes[j], mp, now, false)
		fresh.contact(t, fresh.nodes[i], fresh.nodes[j], mf, now, false)
		if !reflect.DeepEqual(mp.log, mf.log) {
			t.Fatalf("contact %d: budget charges differ\npooled: %v\nfresh:  %v", c, mp.log, mf.log)
		}
		if !reflect.DeepEqual(pooled.trail, fresh.trail) {
			t.Fatalf("contact %d: transfers differ\npooled: %v\nfresh:  %v", c, pooled.trail, fresh.trail)
		}
	}
	relays := 0
	for _, step := range pooled.trail {
		if strings.HasPrefix(step, "relays ") && !strings.HasPrefix(step, "relays 0 ") && strings.HasSuffix(step, " <nil>") {
			relays++
		}
	}
	if relays == 0 {
		t.Fatal("no broker-broker relay exchange ran")
	}
	if len(cache.free) != 2 {
		t.Errorf("cache holds %d arenas, want the 2 one contact uses", len(cache.free))
	}
	requireSameState(t, "pooled vs fresh", pooled, fresh)
}
