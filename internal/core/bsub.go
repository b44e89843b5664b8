// Package core adapts the transport-agnostic B-SUB engine
// (internal/engine) to the discrete-event simulator: it is the
// sim.Protocol driver for the Section VII evaluation.
//
// All protocol logic — broker election, relay-filter merges, preferential
// forwarding, copy accounting — lives in the engine's session state
// machine. This package only:
//
//   - maps trace.NodeID contacts onto engine sessions and moves the
//     sessions' wire encodings across a function call — relay filters
//     through engine.HandRelays/HandAdvert, which hand the quantized
//     filter across in memory and charge its wire length, where the live
//     node moves the bytes across TCP frames;
//   - charges every transfer to the contact's bandwidth Budget and
//     reports control/forwarding/delivery traffic to the sim.Env metrics;
//   - maintains the simulator-side ground-truth "oracle" of each relay
//     filter — the exact multiset of relayed interests with
//     TCBF-identical counter semantics but no hash collisions — used
//     solely to classify producer-to-broker matches as genuine or falsely
//     injected (Section VI-B); the protocol never reads it.
package core

import (
	"math/rand"
	"sync"
	"time"

	"bsub/internal/engine"
	"bsub/internal/filter"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// Config re-exports the engine's parameter set; see engine.Config for the
// per-field paper references.
type Config = engine.Config

// DefaultConfig returns the paper's evaluation parameters with the given
// decaying factor.
func DefaultConfig(decayPerMinute float64) Config {
	return engine.DefaultConfig(decayPerMinute)
}

// node pairs a protocol engine with the simulator-side oracle state.
type node struct {
	id  trace.NodeID
	eng *engine.Node
	// keys are the node's interests as indices into BSub.keyIndex.
	keys []int32

	// oracle mirrors the relay filter's content exactly (no collisions):
	// one counter per interned interest key, zero when absent. It is
	// non-nil iff the node is a broker; oracleAt is its decay clock.
	oracle   []float64
	oracleAt time.Duration
}

// BSub is the simulator driver; per-node protocol state lives in the
// engine.
type BSub struct {
	cfg   Config
	nodes []*node

	// caches holds one engine.SessionCache per simulator worker, so a
	// handful of warm scratch arenas serve the whole population instead
	// of one arena lingering per node.
	caches []*engine.SessionCache

	// keyIndex interns every subscribed key at Init, so oracles are dense
	// slices instead of maps; snaps holds one pre-merge oracle snapshot
	// buffer per worker.
	keyIndex map[workload.Key]int32
	snaps    [][]float64

	// The broker census below is cross-node diagnostic state, so it is the
	// one piece of BSub that contacts in disjoint components still share;
	// censusMu keeps it race-free under the sharded simulator. Under
	// workers > 1 the per-contact fraction samples depend on cross-
	// component interleaving, so MeanBrokerFraction is reproducible only
	// at Workers <= 1 — it feeds diagnostics, never the metrics Report.
	censusMu          sync.Mutex
	brokerFractionSum float64
	brokerSamples     int
	brokerCount       int
}

var _ sim.Protocol = (*BSub)(nil)

// New returns a B-SUB instance with the given configuration.
func New(cfg Config) *BSub { return &BSub{cfg: cfg} }

// Name implements sim.Protocol.
func (p *BSub) Name() string { return "B-SUB" }

// Init implements sim.Protocol.
func (p *BSub) Init(pop sim.Population, _ *rand.Rand) error {
	p.nodes = make([]*node, pop.Nodes())
	p.keyIndex = make(map[workload.Key]int32)
	for i := range p.nodes {
		eng, err := engine.NewNode(i, p.cfg, pop.TTL())
		if err != nil {
			return err
		}
		eng.Subscribe(pop.InterestSet(trace.NodeID(i))...)
		interests := eng.Interests()
		keys := make([]int32, len(interests))
		for j, k := range interests {
			idx, ok := p.keyIndex[k]
			if !ok {
				idx = int32(len(p.keyIndex))
				p.keyIndex[k] = idx
			}
			keys[j] = idx
		}
		p.nodes[i] = &node{id: trace.NodeID(i), eng: eng, keys: keys}
	}
	p.caches = make([]*engine.SessionCache, pop.Workers())
	p.snaps = make([][]float64, pop.Workers())
	for i := range p.caches {
		p.caches[i] = engine.NewSessionCache()
		p.snaps[i] = make([]float64, len(p.keyIndex))
	}
	return nil
}

// OnMessage stores the fresh message at its producer with the full copy
// budget. Simulated messages carry no payload bytes; budgets charge the
// workload's Size field.
func (p *BSub) OnMessage(_ sim.Env, msg workload.Message) {
	p.nodes[msg.Origin].eng.AddProduced(msg, nil)
}

// OnContact runs one contact session: handshake, election, interest
// propagation or relay exchange, then per-side delivery and replication
// pulls — the same step sequence the live node frames over TCP, with a
// the session initiator.
func (p *BSub) OnContact(env sim.Env, aID, bID trace.NodeID, budget *sim.Budget) {
	now := env.Now()
	a, b := p.nodes[aID], p.nodes[bID]

	// 1. Identity handshake. A contact too short even for this carries
	// nothing.
	if !budget.Spend(engine.HandshakeBytes) {
		return
	}
	env.RecordControl(engine.HandshakeBytes)

	// 2. Broker allocation: both sides elect on the hello snapshots, then
	// apply the exchanged verdicts — the same simultaneous round trip the
	// live node performs. Sessions draw their scratch arenas from the
	// executing worker's cache.
	cache := p.caches[env.Worker()]
	sa := a.eng.BeginContact(cache, budget, now)
	sb := b.eng.BeginContact(cache, budget, now)
	sa.SetPeer(sb.Hello())
	sb.SetPeer(sa.Hello())
	actA, actB := sa.Elect(), sb.Elect()
	sa.Apply(actA, actB)
	sb.Apply(actB, actA)
	p.syncRoles(a, b, now)

	// 3. Interest propagation: brokers exchange relay filters and forward
	// preferentially; mixed contacts push the consumer's genuine filter.
	if sa.RelayExchange() {
		p.exchangeRelays(env, a, sa, b, sb, now)
	} else {
		p.propagateGenuine(env, a, sa, b, sb, now)
		p.propagateGenuine(env, b, sb, a, sa, now)
	}

	// 4. Pulls, initiator first: each side asks for deliveries matching
	// its interest BF, then (brokers only) for replicas matching its
	// relay advert.
	p.deliveryPull(env, a, sa, b, sb, now)
	p.replicationPull(env, a, sa, b, sb, now)
	p.deliveryPull(env, b, sb, a, sa, now)
	p.replicationPull(env, b, sb, a, sa, now)

	// 5. Contact over: recycle both sessions' scratch arenas. Every claim
	// above was committed inline, so Release refunds nothing.
	sa.Release()
	sb.Release()
}

// syncRoles reconciles both contact sides' oracles and the broker census
// with the engines' post-election roles; oracle non-nilness marks "was
// broker". One mutex hold covers the role flips and the census sample.
func (p *BSub) syncRoles(a, b *node, now time.Duration) {
	p.censusMu.Lock()
	defer p.censusMu.Unlock()
	p.syncRole(a, now)
	p.syncRole(b, now)
	p.brokerFractionSum += float64(p.brokerCount) / float64(len(p.nodes))
	p.brokerSamples++
}

// syncRole updates one node under censusMu.
func (p *BSub) syncRole(n *node, now time.Duration) {
	switch {
	case n.eng.IsBroker() && n.oracle == nil:
		n.oracle = make([]float64, len(p.keyIndex))
		n.oracleAt = now
		p.brokerCount++
	case !n.eng.IsBroker() && n.oracle != nil:
		n.oracle = nil
		p.brokerCount--
	}
}

// advanceOracle mirrors the relay filter's lazy decay on the ground-truth
// oracle, using the DF currently in effect (the engine settles the filter
// before retuning the DF, and this is called at the same points).
func (p *BSub) advanceOracle(n *node, now time.Duration) {
	if n.oracle == nil {
		return
	}
	elapsed := now - n.oracleAt
	n.oracleAt = now
	df := n.eng.RelayDF()
	if elapsed <= 0 || df == 0 {
		return
	}
	dec := df * elapsed.Minutes()
	for k, c := range n.oracle {
		if c == 0 {
			continue
		}
		if c -= dec; c <= 0 {
			c = 0
		}
		n.oracle[k] = c
	}
}

// mergeOracle applies the broker merge semantics to ground-truth counters.
// Absent keys are zero on both sides, so merging them changes nothing.
func mergeOracle(dst, src []float64, mode engine.BrokerMergeMode) {
	for k, c := range src {
		switch {
		case mode == engine.BrokerMergeAdditive:
			dst[k] += c
		case c > dst[k]:
			dst[k] = c
		}
	}
}

// propagateGenuine pushes the consumer side's genuine filter to the peer
// broker, which A-merges it into its relay filter (reinforcement), and
// mirrors the reinforcement on the broker's oracle.
func (p *BSub) propagateGenuine(env sim.Env, c *node, sc *engine.Session, br *node, sbr *engine.Session, now time.Duration) {
	if !sc.SendsGenuine() {
		return
	}
	data, err := sc.GenuineOut()
	if err != nil || data == nil {
		return
	}
	env.RecordControl(len(data))
	if err := sbr.AbsorbGenuine(data); err != nil {
		return
	}
	if br.oracle == nil {
		return
	}
	p.advanceOracle(br, now)
	for _, k := range c.keys {
		br.oracle[k] += p.cfg.InitialCounter
	}
}

// exchangeRelays handles a broker-broker meeting: exchange relay filters,
// make forwarding decisions against the peer's pre-merge filter, then
// merge — mirroring the merges on the ground-truth oracles.
func (p *BSub) exchangeRelays(env sim.Env, a *node, sa *engine.Session, b *node, sb *engine.Session, now time.Duration) {
	sent, err := engine.HandRelays(sa, sb)
	if sent == 0 {
		return
	}
	env.RecordControl(sent)
	if err != nil {
		return
	}

	p.forward(env, a, sa, b, now)
	p.forward(env, b, sb, a, now)

	if sa.MergeRelay() != nil || sb.MergeRelay() != nil {
		return
	}

	// Mirror the merge on the oracles (pre-merge snapshots, like the
	// filters).
	p.advanceOracle(a, now)
	p.advanceOracle(b, now)
	snapA := p.snaps[env.Worker()]
	copy(snapA, a.oracle)
	mergeOracle(a.oracle, b.oracle, p.cfg.BrokerMerge)
	mergeOracle(b.oracle, snapA, p.cfg.BrokerMerge)
}

// forward moves src's preferential-forwarding candidates to dst, largest
// preference first. Forwarded messages leave src's memory ("this is to
// prevent excessive copies in the network"); a copy dst already holds is
// collapsed at src without spending budget.
func (p *BSub) forward(env sim.Env, src *node, ss *engine.Session, dst *node, now time.Duration) {
	cands, err := ss.ForwardCandidates()
	if err != nil {
		return
	}
	for _, cand := range cands {
		if dst.eng.HasCarried(cand.Msg.ID) {
			src.eng.DropCarried(cand.Msg.ID) // duplicate copy: collapse it
			continue
		}
		claim, ok := ss.ClaimCarried(cand.Msg.ID)
		if !ok {
			return // out of budget
		}
		if claim == nil {
			continue
		}
		claim.Commit()
		m := claim.Msg()
		acc := dst.eng.AcceptCarried(m, claim.Payload(), now)
		env.RecordForwarding(&m)
		if acc.Delivered {
			env.Deliver(&m, dst.id)
		}
	}
}

// deliveryPull serves the asker from the peer's own and carried messages
// matching the asker's counter-less interest BF; matching is what
// introduces delivery-side false positives, and env.Deliver classifies
// them.
func (p *BSub) deliveryPull(env sim.Env, asker *node, sAsker *engine.Session, server *node, sServer *engine.Session, now time.Duration) {
	sent, matches, err := engine.HandInterest(sAsker, sServer)
	if sent == 0 {
		return
	}
	env.RecordControl(sent)
	if err != nil {
		return
	}
	for _, t := range matches {
		var claim *engine.Claim
		var ok bool
		if t.Carried {
			claim, ok = sServer.ClaimCarried(t.Msg.ID)
		} else {
			claim, ok = sServer.ClaimDirect(t.Msg.ID)
		}
		if !ok {
			return // out of budget
		}
		if claim == nil {
			continue
		}
		claim.Commit()
		m := claim.Msg()
		env.RecordForwarding(&m)
		env.Deliver(&m, asker.id)
		asker.eng.ReceiveDelivery(m, int(server.id), now)
	}
}

// replicationPull replicates the peer's matching produced messages to the
// asker broker, bounded by the per-message copy limit. The broker
// advertises its relay filter as a counter-less BF; false positives here
// are what inject useless traffic, and the oracle classifies each
// replication as genuine or injected.
func (p *BSub) replicationPull(env sim.Env, asker *node, sAsker *engine.Session, server *node, sServer *engine.Session, now time.Duration) {
	if !sAsker.SelfBroker() {
		return
	}
	sent, matches, err := engine.HandAdvert(sAsker, sServer)
	if sent == 0 {
		return
	}
	env.RecordControl(sent)
	if err != nil {
		return
	}
	for _, t := range matches {
		claim, ok := sServer.ClaimReplication(t.Msg.ID)
		if !ok {
			return // out of budget
		}
		if claim == nil {
			continue
		}
		claim.Commit()
		m := claim.Msg()
		acc := asker.eng.AcceptCarried(m, claim.Payload(), now)
		env.RecordForwarding(&m)
		p.advanceOracle(asker, now)
		genuineMatch := false
		if asker.oracle != nil {
			for _, k := range m.MatchKeys() {
				if idx, ok := p.keyIndex[k]; ok && asker.oracle[idx] > 0 {
					genuineMatch = true
					break
				}
			}
		}
		env.RecordReplication(!genuineMatch)
		if acc.Delivered {
			env.Deliver(&m, asker.id)
		}
	}
}

// --- Introspection (tests and experiments) --------------------------------

// IsBroker reports whether node id currently serves as a broker.
func (p *BSub) IsBroker(id trace.NodeID) bool { return p.nodes[id].eng.IsBroker() }

// BrokerCount returns the number of current brokers.
func (p *BSub) BrokerCount() int { return p.brokerCount }

// MeanBrokerFraction returns the broker share of the population averaged
// over all contacts — the quantity behind the paper's "[the thresholds]
// maintain about 30% of the nodes being brokers in two traces".
func (p *BSub) MeanBrokerFraction() float64 {
	if p.brokerSamples == 0 {
		return 0
	}
	return p.brokerFractionSum / float64(p.brokerSamples)
}

// RelayFilter returns node id's relay filter, or nil for non-brokers.
// Callers must not mutate it.
func (p *BSub) RelayFilter(id trace.NodeID) filter.Filter { return p.nodes[id].eng.Relay() }

// Engine returns node id's protocol engine, for white-box tests (notably
// the sim/live parity test). Callers must not mutate it.
func (p *BSub) Engine(id trace.NodeID) *engine.Node { return p.nodes[id].eng }

// CarriedCount returns how many message copies node id currently carries.
func (p *BSub) CarriedCount(id trace.NodeID) int { return p.nodes[id].eng.CarriedCount() }
