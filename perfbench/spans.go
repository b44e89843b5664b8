package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"bsub/internal/filter"
	"bsub/internal/sim"
	"bsub/internal/tcbf"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// The wrappers below sit at module boundaries, outside the program: each
// one delegates to the real implementation and, when given a recorder,
// adds a span (calls and busy nanoseconds) around the call. With a nil
// recorder they delegate untouched, so the untraced run and the traced
// run execute the same code apart from the clock reads.

// op names one timed operation class at a layer boundary.
type op int

const (
	opSourceNext  op = iota // tracegen: trace.Source.Next
	opMsgNext               // workload: workload.Source.Next
	opContact               // core: sim.Protocol.OnContact
	opMessage               // core: sim.Protocol.OnMessage
	opEncode                // filter: Encode, EncodeTo
	opDecode                // filter: DecodeInto
	opMerge                 // filter: AMerge, MMerge
	opQuery                 // filter: Contains*, MinCounterPre, PreferencePre
	opAdvance               // filter: Advance, SetDecayFactor
	opInsert                // filter: Insert*
	opFilterOther           // filter: Reset, SetBits, EstimatedFPR
	opDial                  // livenode: Config.Dial
	opRead                  // livenode: initiator conn Read
	numOps
)

// recorder accumulates spans. It is safe for concurrent use: both sides
// of a live session run in this process.
type recorder struct {
	calls       [numOps]atomic.Int64
	nanos       [numOps]atomic.Int64
	encodeBytes atomic.Int64
}

func (r *recorder) span(o op, t0 time.Time) {
	r.calls[o].Add(1)
	r.nanos[o].Add(int64(time.Since(t0)))
}

// meanNs is the mean span length of o in nanoseconds (0 when never called).
func (r *recorder) meanNs(o op) float64 {
	return ratio(float64(r.nanos[o].Load()), float64(r.calls[o].Load()))
}

// filterNanos sums every filter-layer span.
func (r *recorder) filterNanos() int64 {
	var sum int64
	for o := opEncode; o <= opFilterOther; o++ {
		sum += r.nanos[o].Load()
	}
	return sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- tracegen / workload: stream sources -----------------------------------

type tracedSource struct {
	inner trace.Source
	rec   *recorder
}

func (s *tracedSource) Nodes() int { return s.inner.Nodes() }

func (s *tracedSource) Next() (trace.Contact, bool) {
	defer s.rec.span(opSourceNext, time.Now())
	return s.inner.Next()
}

type tracedMsgSource struct {
	inner workload.Source
	rec   *recorder
}

func (s *tracedMsgSource) Next() (workload.Message, bool) {
	defer s.rec.span(opMsgNext, time.Now())
	return s.inner.Next()
}

// --- core: the simulator protocol ------------------------------------------

// timedProtocol measures each OnContact call into lat (the per-contact
// latency end-to-end metric; one worker, so no locking) and, with a
// recorder, adds core spans.
type timedProtocol struct {
	inner sim.Protocol
	rec   *recorder
	lat   *[]int64
}

func (p *timedProtocol) Name() string { return p.inner.Name() }

func (p *timedProtocol) Init(pop sim.Population, rng *rand.Rand) error {
	return p.inner.Init(pop, rng)
}

func (p *timedProtocol) OnMessage(env sim.Env, msg workload.Message) {
	if p.rec == nil {
		p.inner.OnMessage(env, msg)
		return
	}
	defer p.rec.span(opMessage, time.Now())
	p.inner.OnMessage(env, msg)
}

func (p *timedProtocol) OnContact(env sim.Env, a, b trace.NodeID, budget *sim.Budget) {
	t0 := time.Now()
	p.inner.OnContact(env, a, b, budget)
	d := time.Since(t0)
	*p.lat = append(*p.lat, int64(d))
	if p.rec != nil {
		p.rec.calls[opContact].Add(1)
		p.rec.nanos[opContact].Add(int64(d))
	}
}

// nullProtocol does no protocol work: driving the same streams through it
// measures the executor and the sources alone.
type nullProtocol struct{}

func (nullProtocol) Name() string                                               { return "null" }
func (nullProtocol) Init(sim.Population, *rand.Rand) error                      { return nil }
func (nullProtocol) OnMessage(sim.Env, workload.Message)                        {}
func (nullProtocol) OnContact(sim.Env, trace.NodeID, trace.NodeID, *sim.Budget) {}

// --- filter: the Backend seam ------------------------------------------------

// tracedBackend wraps a filter.Backend. It is a comparable value, as
// engine configs require; engines built from equal tracedBackends share
// scratch arenas exactly as the wrapped backend's would.
type tracedBackend struct {
	inner filter.Backend
	rec   *recorder
}

func (b tracedBackend) Name() string      { return b.inner.Name() }
func (b tracedBackend) Laws() filter.Laws { return b.inner.Laws() }

func (b tracedBackend) Validate(cfg tcbf.Config, partitions int) error {
	return b.inner.Validate(cfg, partitions)
}

func (b tracedBackend) New(cfg tcbf.Config, partitions int, now time.Duration) (filter.Filter, error) {
	f, err := b.inner.New(cfg, partitions, now)
	if err != nil {
		return nil, err
	}
	return &tracedFilter{inner: f, rec: b.rec}, nil
}

// tracedFilter times every call into the wrapped filter. Operations that
// take a peer filter unwrap it first: backends check the peer's concrete
// type, and the engine drops the resulting errors silently.
type tracedFilter struct {
	inner filter.Filter
	rec   *recorder
}

var _ filter.Filter = (*tracedFilter)(nil)

func unwrap(f filter.Filter) filter.Filter {
	if t, ok := f.(*tracedFilter); ok {
		return t.inner
	}
	return f
}

func (f *tracedFilter) Config() tcbf.Config { return f.inner.Config() }
func (f *tracedFilter) Partitions() int     { return f.inner.Partitions() }

func (f *tracedFilter) Reset(now time.Duration) {
	defer f.rec.span(opFilterOther, time.Now())
	f.inner.Reset(now)
}

func (f *tracedFilter) Advance(now time.Duration) error {
	defer f.rec.span(opAdvance, time.Now())
	return f.inner.Advance(now)
}

func (f *tracedFilter) SetDecayFactor(perMinute float64, now time.Duration) error {
	defer f.rec.span(opAdvance, time.Now())
	return f.inner.SetDecayFactor(perMinute, now)
}

func (f *tracedFilter) Insert(key string, now time.Duration) error {
	defer f.rec.span(opInsert, time.Now())
	return f.inner.Insert(key, now)
}

func (f *tracedFilter) InsertAll(keys []string, now time.Duration) error {
	defer f.rec.span(opInsert, time.Now())
	return f.inner.InsertAll(keys, now)
}

func (f *tracedFilter) InsertPre(k tcbf.PreKey, now time.Duration) error {
	defer f.rec.span(opInsert, time.Now())
	return f.inner.InsertPre(k, now)
}

func (f *tracedFilter) InsertAllPre(keys []tcbf.PreKey, now time.Duration) error {
	defer f.rec.span(opInsert, time.Now())
	return f.inner.InsertAllPre(keys, now)
}

func (f *tracedFilter) Contains(key string, now time.Duration) (bool, error) {
	defer f.rec.span(opQuery, time.Now())
	return f.inner.Contains(key, now)
}

func (f *tracedFilter) ContainsPre(k tcbf.PreKey, now time.Duration) (bool, error) {
	defer f.rec.span(opQuery, time.Now())
	return f.inner.ContainsPre(k, now)
}

func (f *tracedFilter) ContainsAnyPre(keys []tcbf.PreKey, now time.Duration) (bool, error) {
	defer f.rec.span(opQuery, time.Now())
	return f.inner.ContainsAnyPre(keys, now)
}

func (f *tracedFilter) MinCounterPre(k tcbf.PreKey, now time.Duration) (float64, error) {
	defer f.rec.span(opQuery, time.Now())
	return f.inner.MinCounterPre(k, now)
}

func (f *tracedFilter) PreferencePre(k tcbf.PreKey, peer filter.Filter, now time.Duration) (float64, error) {
	defer f.rec.span(opQuery, time.Now())
	return f.inner.PreferencePre(k, unwrap(peer), now)
}

func (f *tracedFilter) AMerge(other filter.Filter, now time.Duration) error {
	defer f.rec.span(opMerge, time.Now())
	return f.inner.AMerge(unwrap(other), now)
}

func (f *tracedFilter) MMerge(other filter.Filter, now time.Duration) error {
	defer f.rec.span(opMerge, time.Now())
	return f.inner.MMerge(unwrap(other), now)
}

func (f *tracedFilter) Encode(mode tcbf.CounterMode) ([]byte, error) {
	t0 := time.Now()
	b, err := f.inner.Encode(mode)
	f.rec.span(opEncode, t0)
	f.rec.encodeBytes.Add(int64(len(b)))
	return b, err
}

func (f *tracedFilter) EncodeTo(dst []byte, mode tcbf.CounterMode) ([]byte, error) {
	t0 := time.Now()
	out, err := f.inner.EncodeTo(dst, mode)
	f.rec.span(opEncode, t0)
	f.rec.encodeBytes.Add(int64(len(out) - len(dst)))
	return out, err
}

func (f *tracedFilter) DecodeInto(data []byte, now time.Duration) error {
	defer f.rec.span(opDecode, time.Now())
	return f.inner.DecodeInto(data, now)
}

func (f *tracedFilter) SetBits() int {
	defer f.rec.span(opFilterOther, time.Now())
	return f.inner.SetBits()
}

func (f *tracedFilter) EstimatedFPR() float64 {
	defer f.rec.span(opFilterOther, time.Now())
	return f.inner.EstimatedFPR()
}

// --- livenode: the initiator's connection ----------------------------------

// Contact-session frame layout (internal/livenode/wire.go): a 9-byte
// header of type, big-endian body length and CRC32, then the body. A
// message copy travels as one frame of type frameMessage.
const (
	frameHeaderLen = 9
	frameMessage   = 6
)

// frameScanner follows one direction of a session's byte stream and
// counts message frames: every message copy that moves between two nodes,
// the live counterpart of the simulator's forwardings.
type frameScanner struct {
	hdr  [frameHeaderLen]byte
	nhdr int
	body int
	msgs int
}

func (s *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if s.body > 0 {
			n := min(s.body, len(p))
			s.body -= n
			p = p[n:]
			continue
		}
		n := copy(s.hdr[s.nhdr:], p)
		s.nhdr += n
		p = p[n:]
		if s.nhdr == frameHeaderLen {
			if s.hdr[0] == frameMessage {
				s.msgs++
			}
			s.body = int(binary.BigEndian.Uint32(s.hdr[1:5]))
			s.nhdr = 0
		}
	}
}

// aligned reports whether the stream ended on a frame boundary.
func (s *frameScanner) aligned() bool { return s.nhdr == 0 && s.body == 0 }

// sessionConn wraps the initiator's side of one live session. Both
// directions of the session pass through it, so it sees every frame.
// Embedding net.Conn keeps SetReadDeadline/SetWriteDeadline, which the
// session arms per frame. Close hands the counts to the replay driver.
type sessionConn struct {
	net.Conn
	d       *liveDriver
	in, out frameScanner
}

func (c *sessionConn) Read(p []byte) (int, error) {
	var t0 time.Time
	if c.d.rec != nil {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	if c.d.rec != nil {
		c.d.rec.span(opRead, t0)
	}
	c.in.feed(p[:n])
	return n, err
}

func (c *sessionConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

// Close hands the counts to the replay driver and leaves the socket open
// for the driver's release, which closes it once the responder has.
func (c *sessionConn) Close() error {
	c.d.closed(c)
	return nil
}

// release closes the initiator's socket after the responder closed its
// side. Waiting for the responder's FIN and then resetting the already
// half-closed connection leaves neither side in TIME_WAIT: otherwise each
// session parks a socket there for a minute, and the kernel state one run
// leaves behind (up to the TIME_WAIT table's limit) slows the connects of
// the next.
func (c *sessionConn) release(timeout time.Duration) error {
	_ = c.Conn.SetReadDeadline(time.Now().Add(timeout))
	var b [1]byte
	n, err := c.Conn.Read(b[:])
	if n > 0 || !errors.Is(err, io.EOF) {
		_ = c.Conn.Close() // the error below is what matters
		return fmt.Errorf("live-replay: the responder did not close its session cleanly (%d bytes after the session, %v)", n, err)
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	return c.Conn.Close()
}
