//go:build !race

package engine

import (
	"fmt"
	"testing"
	"time"

	"bsub/internal/bloofi"
	"bsub/internal/filter"
	"bsub/internal/workload"
)

// TestContactAllocationFree pins the tentpole property of the contact hot
// path: a warm BeginContact → full broker-broker exchange → Release cycle
// performs zero heap allocations on the default packed TCBF backend, in
// both broker merge modes, over the byte steps and over the in-process
// Hand* steps the simulator uses. The alternative filter backends ride the same
// cycle: retouching works in place and a stationary autoscaling stack
// never grows, so both stay at zero; the Bloofi tree allocates by design
// (per-insert rebuilds, absorb-as-leaf clones) and is pinned to a budget
// with ~2x headroom so a hot-path regression still trips the guard.
// Excluded under -race (the race runtime allocates during bookkeeping).
func TestContactAllocationFree(t *testing.T) {
	for _, m := range []struct {
		name    string
		mode    BrokerMergeMode
		backend filter.Backend // nil = the default packed TCBF
		budget  float64        // max allocs per warm contact cycle
		hand    bool           // run the in-process Hand* steps
	}{
		{"mmerge", BrokerMergeMax, nil, 0, false},
		{"amerge", BrokerMergeAdditive, nil, 0, false},
		{"mmerge-hand", BrokerMergeMax, nil, 0, true},
		{"amerge-hand", BrokerMergeAdditive, nil, 0, true},
		{"retouched", BrokerMergeMax, filter.Retouched{}, 0, false},
		{"autoscale", BrokerMergeMax, filter.Autoscale{}, 0, false},
		{"bloofi", BrokerMergeMax, bloofi.Backend{}, allocBudgetBloofi, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			const ttl = 100 * time.Hour
			now := time.Hour
			cfg := DefaultConfig(0.01)
			cfg.BrokerMerge = m.mode
			cfg.Backend = m.backend
			left, err := NewNode(1, cfg, ttl)
			if err != nil {
				t.Fatal(err)
			}
			right, err := NewNode(2, cfg, ttl)
			if err != nil {
				t.Fatal(err)
			}
			left.Subscribe("news")
			right.Subscribe("sports")
			left.Promote(now)
			right.Promote(now)
			var topics []workload.Key
			for i := 0; i < 32; i++ {
				topics = append(topics, workload.Key(fmt.Sprintf("topic-%02d", i)))
			}
			for r := 0; r < 3; r++ {
				if err := left.Relay().InsertAll(topics, now); err != nil {
					t.Fatal(err)
				}
			}
			if err := right.Relay().InsertAll(topics, now); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				right.AcceptCarried(workload.Message{
					ID:        1000 + i,
					Key:       topics[i],
					Origin:    3,
					Size:      100,
					CreatedAt: now,
				}, nil, now)
			}

			contact := func() {
				sl := left.BeginContact(nil, now)
				sr := right.BeginContact(nil, now)
				sl.SetPeer(sr.Hello())
				sr.SetPeer(sl.Hello())
				actL, actR := sl.Elect(), sr.Elect()
				sl.Apply(actL, actR)
				sr.Apply(actR, actL)
				if m.hand {
					if _, err := HandRelays(sl, sr); err != nil {
						t.Fatal(err)
					}
				} else {
					dl, err := sl.RelayOut()
					if err != nil {
						t.Fatal(err)
					}
					dr, err := sr.RelayOut()
					if err != nil {
						t.Fatal(err)
					}
					if err := sl.SetPeerRelay(dr); err != nil {
						t.Fatal(err)
					}
					if err := sr.SetPeerRelay(dl); err != nil {
						t.Fatal(err)
					}
				}
				cands, err := sr.ForwardCandidates()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cands {
					if claim, ok := sr.ClaimCarried(c.Msg.ID); claim == nil && !ok {
						t.Fatal("claim refused")
					}
				}
				if err := sl.MergeRelay(); err != nil {
					t.Fatal(err)
				}
				if err := sr.MergeRelay(); err != nil {
					t.Fatal(err)
				}
				for _, pair := range [][2]*Session{{sl, sr}, {sr, sl}} {
					asker, server := pair[0], pair[1]
					if m.hand {
						if _, _, err := HandInterest(asker, server); err != nil {
							t.Fatal(err)
						}
						if _, _, err := HandAdvert(asker, server); err != nil {
							t.Fatal(err)
						}
						continue
					}
					in, err := asker.InterestOut()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := server.DeliveryMatches(in); err != nil {
						t.Fatal(err)
					}
					adv, err := asker.RelayAdvertOut()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := server.ReplicationMatches(adv); err != nil {
						t.Fatal(err)
					}
				}
				// Abort refunds the carried-copy claims, so the stores
				// return to the seeded state for the next run; Release then
				// recycles the (claim-free) sessions.
				sr.Abort()
				sl.Abort()
				sr.Release()
				sl.Release()
			}
			contact() // warm the arenas
			if avg := testing.AllocsPerRun(50, contact); avg > m.budget {
				t.Errorf("warm contact: %g allocs per run, want <= %g", avg, m.budget)
			}
		})
	}
}

// Per-backend allocation ceilings for a warm contact cycle. The
// autoscaling stack allocates only when it grows a layer, which a warm
// stationary contact never does, so its steady state is zero like the
// packed backends. The Bloofi tree rebuilds aggregate levels on every
// insert and absorbs peers as cloned leaves (46 allocs measured); its
// ceiling sits at ~2x so noise passes and a hot-path regression fails.
const allocBudgetBloofi = 100
