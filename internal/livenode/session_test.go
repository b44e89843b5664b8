package livenode

import (
	"bytes"
	"net"
	"testing"
	"time"

	"bsub/internal/workload"
)

// plantCarried stores n carried copies of key on node, each with a
// full-size payload, as relayed copies from an absent producer.
func plantCarried(t *testing.T, node *Node, key workload.Key, n int, now time.Duration) {
	t.Helper()
	payload := bytes.Repeat([]byte{'x'}, workload.MaxMessageBytes)
	for i := 0; i < n; i++ {
		node.acceptCarried(workload.Message{
			ID:        1000 + i,
			Key:       key,
			Origin:    77,
			Size:      len(payload),
			CreatedAt: now,
		}, payload, now)
	}
	if got := node.CarriedCount(); got != n {
		t.Fatalf("planted %d carried copies, node holds %d", n, got)
	}
}

// pipeContact runs one contact between two nodes over the two ends of a
// net.Pipe, the dialer as initiator, and fails the test if either side
// errs or the pair has not finished within 30 s: a stalled pipeline
// deadlocks net.Pipe.
func pipeContact(t *testing.T, dialer, responder *Node, dc, rc net.Conn) {
	t.Helper()
	errs := make(chan error, 2)
	go func() { err := dialer.runContact(dc, true); dc.Close(); errs <- err }()
	go func() { err := responder.runContact(rc, false); rc.Close(); errs <- err }()
	timeout := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("contact: %v", err)
			}
		case <-timeout:
			t.Fatal("contact did not finish within 30s: the pipelined session deadlocked")
		}
	}
}

// A batch larger than the session's read buffer crosses an unbuffered
// net.Pipe: the sender's single Write completes only as the receiver
// parses the batch, and the receiver writes nothing until END, so the
// session finishes.
func TestBatchLargerThanReadBuffer(t *testing.T) {
	const copies = 48
	clock := newMeshClock(time.Hour)
	var out sink
	consumer := startNode(t, 1, clock, &out)
	holder := startNode(t, 2, clock, nil)
	consumer.Subscribe("hot")
	plantCarried(t, holder, "hot", copies, clock.now())
	frame, err := appendMessage(nil, workload.Message{ID: 1, Key: "hot"}, make([]byte, workload.MaxMessageBytes))
	if err != nil {
		t.Fatal(err)
	}
	if batch := copies * (frameHeaderLen + len(frame)); batch <= readBufSize {
		t.Fatalf("batch of %d bytes fits the %d-byte read buffer", batch, readBufSize)
	}

	ca, cb := net.Pipe()
	pipeContact(t, consumer, holder, ca, cb)
	if got := out.count(); got != copies {
		t.Errorf("consumer got %d deliveries, want %d", got, copies)
	}
	if got := holder.CarriedCount(); got != 0 {
		t.Errorf("holder kept %d carried copies after handing them off", got)
	}
	if c := holder.Stats(); c.MsgsRefunded != 0 || c.Completed != 1 {
		t.Errorf("holder stats: %d completed, %d refunded; want 1 and 0", c.Completed, c.MsgsRefunded)
	}
}

// countConn counts one session end's socket calls: Reads, Writes, the
// longest run of Writes with no Read between them, and the bytes
// written. Only the session's goroutine touches it until the session
// ends. With linger set it closes with a reset, so a benchmark's
// thousands of loopback connections leave no TIME_WAIT sockets behind.
type countConn struct {
	net.Conn
	reads, writes int
	run, maxRun   int
	written       int64
	linger        bool
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads++
	c.run = 0
	return c.Conn.Read(p)
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes++
	c.run++
	c.maxRun = max(c.maxRun, c.run)
	c.written += int64(n)
	return n, err
}

func (c *countConn) Close() error {
	if tc, ok := c.Conn.(*net.TCPConn); c.linger && ok {
		_ = tc.SetLinger(0)
	}
	return c.Conn.Close()
}

// TestSessionOneWritePerTurn pins the coalescing: across a session with
// filters, an election and message batches in both directions, neither
// end ever issues two Writes without a socket read between them, and the
// bytes on the wire are exactly the frames the session accounts.
func TestSessionOneWritePerTurn(t *testing.T) {
	clock := newMeshClock(time.Hour)
	a := startNode(t, 1, clock, nil)
	b := startNode(t, 2, clock, nil)
	a.Subscribe("hot")
	b.Subscribe("cold")
	plantCarried(t, b, "hot", 8, clock.now())
	for i := 0; i < 8; i++ {
		if _, err := a.Publish([]byte("to b"), "cold"); err != nil {
			t.Fatal(err)
		}
	}

	ca, cb := net.Pipe()
	ta, tb := &countConn{Conn: ca}, &countConn{Conn: cb}
	pipeContact(t, a, b, ta, tb)

	for _, side := range []struct {
		name string
		c    *countConn
		n    *Node
	}{{"initiator", ta, a}, {"responder", tb, b}} {
		st := side.n.Stats()
		if side.c.maxRun > 1 {
			t.Errorf("%s issued %d Writes in a row without a read", side.name, side.c.maxRun)
		}
		if side.c.written != int64(st.BytesOut) {
			t.Errorf("%s wrote %d bytes, accounted %d", side.name, side.c.written, st.BytesOut)
		}
		if uint64(side.c.writes) >= st.FramesOut {
			t.Errorf("%s: %d Writes for %d frames, want fewer Writes than frames", side.name, side.c.writes, st.FramesOut)
		}
		t.Logf("%s: %d frames out in %d writes, %d reads", side.name, st.FramesOut, side.c.writes, side.c.reads)
	}
}
