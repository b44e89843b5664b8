package engine

import (
	"fmt"
	"testing"
	"time"

	"bsub/internal/bloofi"
	"bsub/internal/filter"
	"bsub/internal/workload"
)

// BenchmarkEngineContact measures one full broker-broker contact session
// through the engine — hello/election, relay-filter encode/decode
// exchange, preferential-forwarding decisions with copy claims, the
// configured merge, and both sides' delivery and replication pulls — in
// both broker merge modes on the default packed TCBF backend (the
// mmerge/amerge cases, whose names are the PR 6 baseline), and once per
// alternative filter backend. Claims are aborted at the end of each
// iteration so the stores stay stationary and iterations are comparable.
func BenchmarkEngineContact(b *testing.B) {
	modes := []struct {
		name    string
		mode    BrokerMergeMode
		backend filter.Backend // nil = the default packed TCBF
	}{
		{"mmerge", BrokerMergeMax, nil},
		{"amerge", BrokerMergeAdditive, nil},
		{"retouched", BrokerMergeMax, filter.Retouched{}},
		{"autoscale", BrokerMergeMax, filter.Autoscale{}},
		{"bloofi", BrokerMergeMax, bloofi.Backend{}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			const ttl = 100 * time.Hour
			now := time.Hour
			cfg := DefaultConfig(0.01)
			cfg.BrokerMerge = m.mode
			cfg.Backend = m.backend
			left, err := NewNode(1, cfg, ttl)
			if err != nil {
				b.Fatal(err)
			}
			right, err := NewNode(2, cfg, ttl)
			if err != nil {
				b.Fatal(err)
			}
			left.Subscribe("news")
			right.Subscribe("sports")
			left.Promote(now)
			right.Promote(now)

			// Seed realistic state: 32 relayed interests on each side
			// (reinforced on the left so forwarding has positive
			// preferences), and 16 carried copies at the right broker.
			var topics []workload.Key
			for i := 0; i < 32; i++ {
				topics = append(topics, workload.Key(fmt.Sprintf("topic-%02d", i)))
			}
			reseed := func() {
				left.Demote()
				right.Demote()
				left.Promote(now)
				right.Promote(now)
				for r := 0; r < 3; r++ {
					if err := left.Relay().InsertAll(topics, now); err != nil {
						b.Fatal(err)
					}
				}
				if err := right.Relay().InsertAll(topics, now); err != nil {
					b.Fatal(err)
				}
			}
			reseed()
			for i := 0; i < 16; i++ {
				right.AcceptCarried(workload.Message{
					ID:        1000 + i,
					Key:       topics[i],
					Origin:    3,
					Size:      100,
					CreatedAt: now,
				}, nil, now)
			}

			leftCache, rightCache := NewSessionCache(), NewSessionCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 && i > 0 {
					// Merges accumulate counters across iterations (the
					// additive mode exponentially); a periodic amortized
					// reseed keeps the filters in a realistic regime.
					reseed()
				}
				sl := left.BeginContact(leftCache, nil, now)
				sr := right.BeginContact(rightCache, nil, now)
				sl.SetPeer(sr.Hello())
				sr.SetPeer(sl.Hello())
				actL, actR := sl.Elect(), sr.Elect()
				sl.Apply(actL, actR)
				sr.Apply(actR, actL)

				dl, err := sl.RelayOut()
				if err != nil {
					b.Fatal(err)
				}
				dr, err := sr.RelayOut()
				if err != nil {
					b.Fatal(err)
				}
				if err := sl.SetPeerRelay(dr); err != nil {
					b.Fatal(err)
				}
				if err := sr.SetPeerRelay(dl); err != nil {
					b.Fatal(err)
				}
				cands, err := sr.ForwardCandidates()
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range cands {
					if claim, ok := sr.ClaimCarried(c.Msg.ID); claim == nil && !ok {
						b.Fatal("claim refused")
					}
				}
				if err := sl.MergeRelay(); err != nil {
					b.Fatal(err)
				}
				if err := sr.MergeRelay(); err != nil {
					b.Fatal(err)
				}

				for _, pair := range [][2]*Session{{sl, sr}, {sr, sl}} {
					asker, server := pair[0], pair[1]
					in, err := asker.InterestOut()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := server.DeliveryMatches(in); err != nil {
						b.Fatal(err)
					}
					adv, err := asker.RelayAdvertOut()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := server.ReplicationMatches(adv); err != nil {
						b.Fatal(err)
					}
				}

				// Abort refunds the forwarding claims — the stores return
				// to their seeded state — and Release recycles both
				// sessions' scratch arenas, so warm iterations measure the
				// steady-state (allocation-free) contact path.
				sr.Abort()
				sl.Abort()
				sr.Release()
				sl.Release()
			}
		})
	}
}
