package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bsub/internal/experiments"
	"bsub/internal/filter"
	"bsub/internal/livenode"
	"bsub/internal/workload"
)

const (
	// liveContacts is how many of the Haggle fixture's first contacts
	// live-replay turns into sessions.
	liveContacts = 10_000
	// liveTTL is the message lifetime of the live nodes; the decaying
	// factor follows from it by Eq. 5, as in the simulator sweep.
	liveTTL = 1000 * time.Minute
	// responderWait bounds the wait for a responder's session record.
	responderWait = 10 * time.Second
)

// liveDriver collects what the live nodes report through their hooks.
// Hooks run on session goroutines; mu guards the fields below it.
type liveDriver struct {
	rec       *recorder
	interests []workload.Key // each node's subscription

	mu         sync.Mutex
	delivered  map[[2]int]bool // (message ID, node index) pairs seen
	genuine    int             // deliveries to a subscriber of the message
	dups       int
	initiator  []livenode.SessionStats
	incomplete int // session records, either side, that did not complete
	msgFrames  int
	misframed  int

	// responded counts responder-side session records; notify wakes the
	// driver after each one.
	responded atomic.Int64
	notify    chan struct{}
	// dialed counts connected dials. Meet dials on the calling goroutine,
	// so only the driver goroutine touches it.
	dialed int64
	// open holds the initiator connections the sessions closed, for
	// releaseConns; guarded by mu.
	open []*sessionConn
}

// dial is the nodes' Config.Dial: a TCP dial whose connection reports
// its frame counts when the session closes it.
func (d *liveDriver) dial(addr string, timeout time.Duration) (net.Conn, error) {
	t0 := time.Now()
	c, err := net.DialTimeout("tcp", addr, timeout)
	if d.rec != nil {
		d.rec.span(opDial, t0)
	}
	if err != nil {
		return nil, err
	}
	d.dialed++
	return &sessionConn{Conn: c, d: d}, nil
}

func (d *liveDriver) closed(c *sessionConn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.open = append(d.open, c)
	d.msgFrames += c.in.msgs + c.out.msgs
	if !c.in.aligned() || !c.out.aligned() {
		d.misframed++
	}
}

func (d *liveDriver) session(st livenode.SessionStats) {
	d.mu.Lock()
	if st.Initiator {
		d.initiator = append(d.initiator, st)
	}
	if st.Outcome != livenode.OutcomeCompleted {
		d.incomplete++
	}
	d.mu.Unlock()
	if !st.Initiator {
		d.responded.Add(1)
		select {
		case d.notify <- struct{}{}:
		default:
		}
	}
}

func (d *liveDriver) deliver(node int, dl livenode.Delivery) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := [2]int{dl.Message.ID, node}
	if d.delivered[k] {
		d.dups++
		return
	}
	d.delivered[k] = true
	for _, key := range dl.Message.MatchKeys() {
		if key == d.interests[node] {
			d.genuine++
			break
		}
	}
}

func (d *liveDriver) incompleteCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.incomplete
}

// awaitResponders waits until every connected dial's responder side has
// reported its session record, so the next contact starts on settled
// nodes and the counters read at the end are complete.
func (d *liveDriver) awaitResponders() error {
	timeout := time.NewTimer(responderWait)
	defer timeout.Stop()
	for d.responded.Load() < d.dialed {
		select {
		case <-d.notify:
		case <-timeout.C:
			return errors.New("live-replay: a responder session record never arrived")
		}
	}
	return nil
}

// releaseConns closes the initiator sockets of finished sessions; see
// sessionConn.release. Call it after awaitResponders.
func (d *liveDriver) releaseConns() error {
	d.mu.Lock()
	open := d.open
	d.open = nil
	d.mu.Unlock()
	var first error
	for _, c := range open {
		if err := c.release(responderWait); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fingerprint hashes the sorted delivered pairs: the replay's
// deterministic output.
func (d *liveDriver) fingerprint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	pairs := make([][2]int, 0, len(d.delivered))
	for k := range d.delivered {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	h := fnv.New64a()
	for _, p := range pairs {
		fmt.Fprintf(h, "%d/%d;", p[0], p[1])
	}
	return fmt.Sprintf("deliveries=%d hash=%016x", len(pairs), h.Sum64())
}

// haggleTraceSeed fixes the Haggle stand-in trace and its interests. The
// paper evaluates on one real Infocom'06 trace; with 79 heavy-tailed
// nodes, a fresh trace per seed moves forwardings per delivery by up to
// 2x, which would drown any change under test.
const haggleTraceSeed = 1

// haggleFixture is the input of live-replay: the fixed Haggle trace and
// interests, with the message workload (creation times, keys, sizes)
// and the protocol's random draws taken from seed.
func haggleFixture(seed int64) (*experiments.Fixture, error) {
	f, err := experiments.NewHaggleFixture(haggleTraceSeed)
	if err != nil {
		return nil, err
	}
	rates, err := workload.Rates(f.Trace.Centrality(), workload.DefaultBaseRatePerHour)
	if err != nil {
		return nil, err
	}
	f.Messages = workload.GenerateMessages(f.Keys, rates, f.Trace.Span(), rand.New(rand.NewSource(seed)))
	f.Seed = seed
	return f, nil
}

// liveReplay replays the Haggle fixture's first contacts as real livenode
// sessions over loopback TCP: one node per trace node, every clock set to
// trace time, each message published at its creation time, and one
// driver calling Meet serially. A contact starts only after the previous
// one ended on both sides.
func liveReplay(seed int64, rec *recorder, lat []int64) (repOut, error) {
	t0 := time.Now()
	f, err := haggleFixture(seed)
	if err != nil {
		return repOut{}, err
	}
	contacts := f.Trace.Contacts[:min(liveContacts, len(f.Trace.Contacts))]
	pcfg := f.BSubConfig(liveTTL)
	if rec != nil {
		pcfg.Backend = tracedBackend{inner: filter.Packed{}, rec: rec}
	}
	subscribers := map[workload.Key][]int{}
	for i, k := range f.Interests {
		subscribers[k] = append(subscribers[k], i)
	}

	d := &liveDriver{rec: rec, interests: f.Interests, delivered: map[[2]int]bool{}, notify: make(chan struct{}, 1)}
	var clock atomic.Int64
	nodes := make([]*livenode.Node, f.Trace.Nodes)
	defer func() {
		for _, c := range d.open {
			_ = c.Conn.Close() // left open only when the replay failed
		}
		for _, n := range nodes {
			if n != nil {
				_ = n.Close() // the listener's close error changes nothing here
			}
		}
	}()
	for i := range nodes {
		nodes[i], err = livenode.Listen("127.0.0.1:0", livenode.Config{
			ID:        uint32(i + 1),
			Protocol:  pcfg,
			TTL:       liveTTL,
			Clock:     func() time.Duration { return time.Duration(clock.Load()) },
			OnDeliver: func(dl livenode.Delivery) { d.deliver(i, dl) },
			OnSession: d.session,
			Dial:      d.dial,
		})
		if err != nil {
			return repOut{}, err
		}
		nodes[i].Subscribe(f.Interests[i])
	}
	setup := time.Since(t0)

	var (
		payload     [workload.MaxMessageBytes]byte
		published   []int // live message IDs
		deliverable int
		failed      int
	)
	msgs := f.Messages
	start := time.Now()
	for _, c := range contacts {
		for len(msgs) > 0 && msgs[0].CreatedAt <= c.Start {
			m := msgs[0]
			msgs = msgs[1:]
			clock.Store(int64(m.CreatedAt))
			id, err := nodes[m.Origin].Publish(payload[:m.Size], m.MatchKeys()...)
			if err != nil {
				return repOut{}, fmt.Errorf("publish: %w", err)
			}
			published = append(published, id)
			for _, k := range m.MatchKeys() {
				for _, s := range subscribers[k] {
					if s != m.Origin {
						deliverable++
					}
				}
			}
		}
		clock.Store(int64(c.Start))
		incomplete := d.incompleteCount()
		t := time.Now()
		meetErr := nodes[c.A].Meet(nodes[c.B].Addr())
		lat = append(lat, int64(time.Since(t)))
		if err := d.awaitResponders(); err != nil {
			return repOut{}, err
		}
		if err := d.releaseConns(); err != nil {
			return repOut{}, err
		}
		if meetErr != nil || d.incompleteCount() > incomplete {
			failed++
		}
	}
	wall := time.Since(start)

	out := repOut{
		setup:     setup,
		wall:      wall,
		work:      len(contacts),
		lat:       lat,
		outputs:   d.fingerprint(),
		attempted: len(contacts),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var bytes int64
	for _, st := range d.initiator {
		bytes += st.BytesIn + st.BytesOut
	}
	out.failed = failed
	if d.dups > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d duplicate deliveries", d.dups))
	}
	if d.misframed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d sessions did not parse as whole frames", d.misframed))
	}
	if len(d.delivered) > 0 && d.msgFrames < len(d.delivered) {
		out.problems = append(out.problems, fmt.Sprintf("%d message frames for %d deliveries", d.msgFrames, len(d.delivered)))
	}
	for _, id := range published {
		copies := 0
		for _, n := range nodes {
			copies += n.CopyCensus(id)
		}
		if copies > pcfg.CopyLimit {
			out.problems = append(out.problems, fmt.Sprintf("message %d has %d copies, limit %d", id, copies, pcfg.CopyLimit))
		}
	}
	sessions := float64(len(d.initiator))
	out.det = map[string]float64{
		"delivery_ratio":    ratio(float64(d.genuine), float64(deliverable)),
		"fwd_per_delivered": ratio(float64(d.msgFrames), float64(len(d.delivered))),
		"bytes_per_contact": ratio(float64(bytes), sessions),
	}
	if rec == nil {
		return out, nil
	}

	var sessionNs, frames int64
	for _, st := range d.initiator {
		sessionNs += int64(st.Duration)
		frames += int64(st.FramesIn + st.FramesOut)
	}
	var refunded, retries, busy uint64
	carried, brokers := 0, 0
	for _, n := range nodes {
		s := n.Stats()
		refunded += s.MsgsRefunded
		retries += s.MeetRetries
		busy += s.RefusedBusy
		carried += n.CarriedCount()
		if n.IsBroker() {
			brokers++
		}
	}
	out.layers = map[string]float64{
		"engine.carried_mean":            ratio(float64(carried), float64(len(nodes))),
		"engine.broker_fraction":         ratio(float64(brokers), float64(len(nodes))),
		"engine.forwardings_per_contact": ratio(float64(d.msgFrames), sessions),
		"livenode.session_ns":            ratio(float64(sessionNs), sessions),
		"livenode.dial_ns":               rec.meanNs(opDial),
		"livenode.frames_per_session":    ratio(float64(frames), sessions),
		"livenode.reads_per_session":     ratio(float64(rec.calls[opRead].Load()), sessions),
		"livenode.read_wait_share":       ratio(float64(rec.nanos[opRead].Load()), float64(sessionNs)),
		"livenode.bytes_per_session":     ratio(float64(bytes), sessions),
		"livenode.refunded":              float64(refunded),
		"livenode.meet_retries":          float64(retries),
		"livenode.refused_busy":          float64(busy),
	}
	addFilterLayers(out.layers, rec, float64(wall), sessions)
	return out, nil
}
