package livenode

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsub/internal/core"
	"bsub/internal/workload"
)

// meshClock is a controllable time base shared by every node in a test.
type meshClock struct {
	ns atomic.Int64
}

func (c *meshClock) now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *meshClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
func newMeshClock(start time.Duration) *meshClock {
	c := &meshClock{}
	c.ns.Store(int64(start))
	return c
}

// sink collects deliveries thread-safely.
type sink struct {
	mu   sync.Mutex
	msgs []Delivery
}

func (s *sink) deliver(d Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, d)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) ids() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.msgs))
	for i, d := range s.msgs {
		out[i] = d.Message.ID
	}
	return out
}

func (s *sink) payloads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.msgs))
	for i, d := range s.msgs {
		out[i] = string(d.Payload)
	}
	return out
}

func startNode(t *testing.T, id uint32, clock *meshClock, out *sink) *Node {
	t.Helper()
	cfg := Config{
		ID:       id,
		Protocol: core.DefaultConfig(0.01),
		TTL:      2 * time.Hour,
		Clock:    clock.now,
	}
	if out != nil {
		cfg.OnDeliver = out.deliver
	}
	n, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{ID: 1, Protocol: core.DefaultConfig(0.1)}); err == nil {
		t.Error("zero TTL accepted")
	}
	bad := core.DefaultConfig(0.1)
	bad.FilterM = 0
	if _, err := Listen("127.0.0.1:0", Config{ID: 1, Protocol: bad, TTL: time.Hour}); err == nil {
		t.Error("invalid protocol config accepted")
	}
}

func TestDirectDeliveryOverTCP(t *testing.T) {
	clock := newMeshClock(time.Hour)
	var got sink
	producer := startNode(t, 1, clock, nil)
	consumer := startNode(t, 2, clock, &got)
	consumer.Subscribe("news")

	if _, err := producer.Publish([]byte("hello hunet"), "news"); err != nil {
		t.Fatal(err)
	}
	if err := producer.Meet(consumer.Addr()); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatalf("consumer received %d messages, want 1", got.count())
	}
	if got.payloads()[0] != "hello hunet" {
		t.Errorf("payload = %q", got.payloads()[0])
	}
	if !gotDirect(&got, 0) {
		t.Error("direct delivery not flagged Direct")
	}
}

func gotDirect(s *sink, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs[i].Direct
}

func TestNoDuplicateDeliveries(t *testing.T) {
	clock := newMeshClock(time.Hour)
	var got sink
	producer := startNode(t, 1, clock, nil)
	consumer := startNode(t, 2, clock, &got)
	consumer.Subscribe("news")
	if _, err := producer.Publish([]byte("x"), "news"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := producer.Meet(consumer.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}
	if got.count() != 1 {
		t.Fatalf("consumer received %d copies, want 1", got.count())
	}
}

func TestBrokerBootstrapAndRelayOverTCP(t *testing.T) {
	// 0 and 2 never meet; 1 is the hub. After warm-up meetings promote a
	// broker and propagate interests, a message published at 0 must reach
	// 2 through 1.
	clock := newMeshClock(time.Hour)
	var got sink
	n0 := startNode(t, 10, clock, nil)
	n1 := startNode(t, 11, clock, nil)
	n2 := startNode(t, 12, clock, &got)
	n2.Subscribe("transit")

	// Warm-up: both edges meet twice so the election runs and n2's
	// interest lands in the broker's relay filter.
	for i := 0; i < 2; i++ {
		if err := n0.Meet(n1.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(5 * time.Minute)
		if err := n2.Meet(n1.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(5 * time.Minute)
	}
	if !n1.IsBroker() && !n0.IsBroker() && !n2.IsBroker() {
		t.Fatal("no broker emerged from warm-up")
	}

	if _, err := n0.Publish([]byte("line 4 delayed"), "transit"); err != nil {
		t.Fatal(err)
	}
	// Producer meets hub (replication), hub meets consumer (delivery).
	if err := n0.Meet(n1.Addr()); err != nil {
		t.Fatal(err)
	}
	clock.advance(5 * time.Minute)
	if err := n2.Meet(n1.Addr()); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatalf("consumer received %d messages via broker, want 1", got.count())
	}
	if gotDirect(&got, 0) {
		t.Error("broker-mediated delivery flagged Direct")
	}
}

func TestTTLExpiryOverTCP(t *testing.T) {
	clock := newMeshClock(time.Hour)
	var got sink
	producer := startNode(t, 1, clock, nil)
	consumer := startNode(t, 2, clock, &got)
	consumer.Subscribe("news")
	if _, err := producer.Publish([]byte("stale"), "news"); err != nil {
		t.Fatal(err)
	}
	clock.advance(3 * time.Hour) // TTL is 2h
	if err := producer.Meet(consumer.Addr()); err != nil {
		t.Fatal(err)
	}
	if got.count() != 0 {
		t.Fatalf("expired message delivered %d times", got.count())
	}
}

func TestMultiKeyDeliveryOverTCP(t *testing.T) {
	clock := newMeshClock(time.Hour)
	var got sink
	producer := startNode(t, 1, clock, nil)
	consumer := startNode(t, 2, clock, &got)
	consumer.Subscribe("secondary")
	if _, err := producer.Publish([]byte("multi"), "primary", "secondary"); err != nil {
		t.Fatal(err)
	}
	if err := producer.Meet(consumer.Addr()); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatalf("multi-key message delivered %d times, want 1", got.count())
	}
}

func TestPublishValidation(t *testing.T) {
	clock := newMeshClock(time.Hour)
	n := startNode(t, 1, clock, nil)
	if _, err := n.Publish([]byte("x")); err == nil {
		t.Error("publish without keys accepted")
	}
	big := make([]byte, workload.MaxMessageBytes+1)
	if _, err := n.Publish(big, "k"); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestSubscribeDedups(t *testing.T) {
	clock := newMeshClock(time.Hour)
	n := startNode(t, 1, clock, nil)
	n.Subscribe("a", "b", "a")
	n.Subscribe("b")
	if got := n.Interests(); len(got) != 2 {
		t.Errorf("interests = %v, want deduplicated {a,b}", got)
	}
}

func TestMessageIDsUniqueAcrossNodes(t *testing.T) {
	clock := newMeshClock(time.Hour)
	a := startNode(t, 1, clock, nil)
	b := startNode(t, 2, clock, nil)
	seen := make(map[int]struct{})
	for i := 0; i < 5; i++ {
		for _, n := range []*Node{a, b} {
			id, err := n.Publish([]byte("x"), "k")
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("duplicate message ID %d", id)
			}
			seen[id] = struct{}{}
		}
	}
}

// --- Wire-format unit tests ---------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHello, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameHello || string(body) != "abc" {
		t.Errorf("round trip: typ=%d body=%q", typ, body)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameBye, nil); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(&buf)
	if err != nil || typ != frameBye || len(body) != 0 {
		t.Errorf("empty frame: typ=%d body=%v err=%v", typ, body, err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameMessage, make([]byte, maxFrameBytes+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write error = %v", err)
	}
	// An adversarial header announcing a huge frame must be rejected
	// before any body allocation, whatever its CRC field claims.
	buf.Reset()
	buf.Write([]byte{frameMessage, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	if _, _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read error = %v", err)
	}
}

func TestFrameCRCDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameMessage, []byte("fragile payload")); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Any single-byte corruption outside the length field must surface
	// as ErrCorruptFrame (length-field damage may also surface as a
	// size-limit or truncation error; those are covered elsewhere).
	for _, pos := range []int{0, 5, 6, 7, 8, frameHeaderLen, len(clean) - 1} {
		corrupt := append([]byte(nil), clean...)
		corrupt[pos] ^= 0x20
		if _, _, err := readFrame(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("flip at byte %d: error = %v, want ErrCorruptFrame", pos, err)
		}
	}
	if _, body, err := readFrame(bytes.NewReader(clean)); err != nil || string(body) != "fragile payload" {
		t.Errorf("clean frame rejected: %q, %v", body, err)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	bad := hello{ID: 3}.encode()
	bad[0] = protoVersion + 1
	if _, err := decodeHello(bad); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("future-version hello error = %v, want ErrVersionMismatch", err)
	}
}

// A v3 peer would wait for per-message ACKs that a v4 receiver holds back
// until END; the version byte must refuse it at HELLO instead, both in
// the decoder and in a live session, which must end at once rather than
// stall until SessionTimeout.
func TestHelloRefusesV3(t *testing.T) {
	v3 := hello{ID: 3}.encode()
	v3[0] = 3
	if _, err := decodeHello(v3); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("v3 hello error = %v, want ErrVersionMismatch", err)
	}

	clock := newMeshClock(time.Hour)
	node := startNode(t, 1, clock, nil)
	local, remote := net.Pipe()
	defer local.Close()
	done := make(chan error, 1)
	go func() { done <- node.runContact(remote, false) }()
	_ = local.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(local, frameHello, v3); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("session with a v3 peer ended with %v, want ErrVersionMismatch", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("session with a v3 peer did not fail fast")
	}
}

func TestAckRoundTrip(t *testing.T) {
	id := int(uint64(7)<<32 | 123)
	got, err := decodeAck(appendAck(nil, id))
	if err != nil || got != id {
		t.Errorf("ack round trip = %d, %v; want %d", got, err, id)
	}
	if _, err := decodeAck([]byte{1, 2, 3}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short ack error = %v, want ErrProtocol", err)
	}
}

func TestExpectFrameMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHello, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(&buf, frameBye); !errors.Is(err, ErrProtocol) {
		t.Errorf("type mismatch error = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := hello{ID: 42, Broker: true, Degree: 7}
	out, err := decodeHello(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v vs %+v", out, in)
	}
	if _, err := decodeHello([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short hello error = %v", err)
	}
}

func TestMessageWireRoundTrip(t *testing.T) {
	msg := workload.Message{
		ID:        int(uint64(3)<<32 | 9),
		Key:       "primary",
		Extra:     []workload.Key{"tag-a", "tag-b"},
		Origin:    3,
		Size:      5,
		CreatedAt: 90 * time.Minute,
	}
	body, err := appendMessage(nil, msg, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, payload, err := decodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "hello" {
		t.Errorf("payload = %q", payload)
	}
	if !reflect.DeepEqual(got.MatchKeys(), msg.MatchKeys()) {
		t.Errorf("keys = %v, want %v", got.MatchKeys(), msg.MatchKeys())
	}
	if got.ID != msg.ID || got.Origin != msg.Origin || got.CreatedAt != msg.CreatedAt {
		t.Errorf("header fields: %+v vs %+v", got, msg)
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	msg := workload.Message{ID: 1, Key: "k", Origin: 2, CreatedAt: time.Minute}
	body, err := appendMessage(nil, msg, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "short", data: body[:10]},
		{name: "truncated keys", data: body[:22]},
		{name: "truncated payload", data: body[:len(body)-2]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := decodeMessage(tt.data); !errors.Is(err, ErrProtocol) {
				t.Errorf("error = %v, want ErrProtocol", err)
			}
		})
	}
}

func TestConcurrentMeetingsDoNotDeadlock(t *testing.T) {
	// Nodes dialing each other simultaneously must never deadlock: a
	// responder at capacity answers BUSY and the dialer backs off and
	// retries, like a radio that is already occupied.
	clock := newMeshClock(time.Hour)
	var got sink
	mesh := make([]*Node, 6)
	for i := range mesh {
		mesh[i] = startNode(t, uint32(100+i), clock, &got)
		mesh[i].Subscribe("topic")
	}
	if _, err := mesh[0].Publish([]byte("fanout"), "topic"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for round := 0; round < 5; round++ {
		for i := range mesh {
			for j := range mesh {
				if i == j {
					continue
				}
				wg.Add(1)
				go func(a, b int) {
					defer wg.Done()
					// Errors (busy peers, refused sessions) are expected
					// under contention; panics and deadlocks are not.
					_ = mesh[a].Meet(mesh[b].Addr())
				}(i, j)
			}
		}
		wg.Wait()
		clock.advance(time.Minute)
	}
	// The storm may legitimately yield zero completed sessions (all
	// radios busy refusing each other); what it must never do is wedge
	// the mesh. Sequential meetings afterwards must still work and
	// deliver the message.
	for i := 1; i < len(mesh); i++ {
		if err := mesh[0].Meet(mesh[i].Addr()); err != nil {
			t.Fatalf("sequential meet after the storm failed: %v", err)
		}
		clock.advance(time.Minute)
	}
	if got.count() == 0 {
		t.Error("no deliveries even after sequential post-storm meetings")
	}
}

func TestCloseIsIdempotentAndStopsServing(t *testing.T) {
	clock := newMeshClock(time.Hour)
	n := startNode(t, 1, clock, nil)
	addr := n.Addr()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	other := startNode(t, 2, clock, nil)
	if err := other.Meet(addr); err == nil {
		t.Error("meeting a closed node succeeded")
	}
}

func TestCopyLimitOverTCP(t *testing.T) {
	// A producer replicating to many brokers must stop at CopyLimit
	// copies; afterwards the message is gone from its memory and further
	// brokers receive nothing.
	clock := newMeshClock(time.Hour)
	producer := startNode(t, 1, clock, nil)
	brokers := make([]*Node, 5)
	for i := range brokers {
		brokers[i] = startNode(t, uint32(10+i), clock, nil)
		brokers[i].Subscribe("elsewhere") // so relay filters match via interest
	}
	// Warm-up: node 10 walks the others. Mutual promotions resolve to the
	// higher-ID side (11, 12, 13 become brokers); at the fourth meeting
	// node 10 has seen T_l brokers, stops designating, and is itself
	// promoted by 14's unilateral verdict — four brokers total.
	for i := 1; i < len(brokers); i++ {
		if err := brokers[0].Meet(brokers[i].Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}
	// A helper consumer plants the "hot" interest in every broker's relay
	// filter (the helper meets only brokers, so it is never promoted).
	helper := startNode(t, 99, clock, nil)
	helper.Subscribe("hot")
	brokerCount := 0
	for _, b := range brokers {
		if !b.IsBroker() {
			continue
		}
		brokerCount++
		if err := helper.Meet(b.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}
	if brokerCount < 4 {
		t.Fatalf("only %d brokers formed from pairwise warm-up", brokerCount)
	}
	if helper.IsBroker() {
		t.Fatal("helper was promoted despite meeting only brokers")
	}

	if _, err := producer.Publish([]byte("x"), "hot"); err != nil {
		t.Fatal(err)
	}
	for _, b := range brokers {
		if err := producer.Meet(b.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}
	carried := 0
	for _, b := range brokers {
		carried += b.CarriedCount()
	}
	limit := core.DefaultConfig(0.01).CopyLimit
	if carried > limit {
		t.Errorf("%d carried copies exceed the copy limit %d", carried, limit)
	}
}

func TestListenAcceptsPartitionedRelay(t *testing.T) {
	// The engine supports partitioned relay filters everywhere, so the
	// live node does too (it used to reject them).
	cfg := core.DefaultConfig(0.1)
	cfg.RelayPartitions = 4
	n, err := Listen("127.0.0.1:0", Config{ID: 1, Protocol: cfg, TTL: time.Hour})
	if err != nil {
		t.Fatalf("partitioned relay filters rejected: %v", err)
	}
	_ = n.Close()
}

func TestDemotionOverTCP(t *testing.T) {
	// White-box: preload a user with more broker sightings than T_u, all
	// well-connected; when it meets a zero-degree broker, the election
	// must demote it over the wire.
	clock := newMeshClock(time.Hour)
	user := startNode(t, 1, clock, nil)
	weak := startNode(t, 2, clock, nil)

	weak.mu.Lock()
	weak.eng.Promote(clock.now())
	weak.mu.Unlock()

	user.mu.Lock()
	for i := 10; i < 17; i++ { // 7 sightings > T_u = 5
		user.eng.RecordBrokerSighting(i, 20, clock.now())
	}
	user.mu.Unlock()

	if err := user.Meet(weak.Addr()); err != nil {
		t.Fatal(err)
	}
	if weak.IsBroker() {
		t.Error("below-average broker not demoted over the wire")
	}
	if user.ID() != 1 || weak.ID() != 2 {
		t.Error("node IDs wrong")
	}
}

func TestProducerNeverDeliversToItself(t *testing.T) {
	// A producer subscribed to its own topic must not count a broker-
	// returned copy of its own message as a delivery.
	clock := newMeshClock(time.Hour)
	var got sink
	producer := startNode(t, 1, clock, &got)
	producer.Subscribe("loop")
	hub := startNode(t, 2, clock, nil)

	if _, err := producer.Publish([]byte("echo?"), "loop"); err != nil {
		t.Fatal(err)
	}
	// Repeated meetings: hub becomes a broker, picks up the producer's
	// interest AND a copy of the message, then serves the producer back.
	for i := 0; i < 4; i++ {
		if err := producer.Meet(hub.Addr()); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}
	if got.count() != 0 {
		t.Errorf("producer received its own message %d times", got.count())
	}
}
