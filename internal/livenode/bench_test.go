package livenode

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bsub/internal/core"
)

// BenchmarkLiveSession times one whole contact session between two live
// nodes — framing, CRC, deadlines, the engine steps and the claims of its
// message batch — over an in-process net.Pipe and over loopback TCP
// (dial, accept and the first-frame peek included). With msgs=8 the
// responder serves eight direct deliveries per contact: it forgets what it
// sent before each one, and the initiator dedups the repeats but ACKs
// every copy. reads/op and writes/op count the initiator's socket calls.
func BenchmarkLiveSession(b *testing.B) {
	for _, transport := range []string{"pipe", "tcp"} {
		for _, msgs := range []int{0, 8} {
			b.Run(fmt.Sprintf("%s/msgs=%d", transport, msgs), func(b *testing.B) {
				benchLiveSession(b, transport, msgs)
			})
		}
	}
}

func benchLiveSession(b *testing.B, transport string, msgs int) {
	clock := newMeshClock(time.Hour)
	var dialed *countConn // the initiator end of the latest TCP contact
	start := func(id uint32) *Node {
		n, err := Listen("127.0.0.1:0", Config{
			ID:       id,
			Protocol: core.DefaultConfig(0.01),
			TTL:      2 * time.Hour,
			Clock:    clock.now,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				dialed = &countConn{Conn: c, linger: true}
				return dialed, nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = n.Close() })
		return n
	}
	initiator, responder := start(1), start(2)
	initiator.Subscribe("hot")
	responder.Subscribe("cold")
	for i := 0; i < msgs; i++ {
		if _, err := responder.Publish(make([]byte, 100), "hot"); err != nil {
			b.Fatal(err)
		}
	}
	// contact runs one session and returns its initiator end's counts.
	contact := func() *countConn {
		responder.ForgetDeliveries(initiator.ID())
		if transport == "tcp" {
			if err := initiator.Meet(responder.Addr()); err != nil {
				b.Fatal(err)
			}
			return dialed
		}
		ca, cb := net.Pipe()
		done := make(chan error, 1)
		go func() { err := responder.runContact(cb, false); cb.Close(); done <- err }()
		c := &countConn{Conn: ca}
		err := initiator.runContact(c, true)
		ca.Close()
		if rerr := <-done; err == nil {
			err = rerr
		}
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	contact() // settle the election before timing
	var reads, writes int
	frames := initiator.Stats().FramesOut + initiator.Stats().FramesIn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := contact()
		reads += c.reads
		writes += c.writes
	}
	b.StopTimer()
	st := initiator.Stats()
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(st.FramesOut+st.FramesIn-frames)/float64(b.N), "frames/op")
}
