package engine

import (
	"math/rand"
	"testing"
	"time"
)

// mapMeetings is the reference the time-ordered meeting list replaced:
// a last-seen map that Degree walks and prunes in full on every call.
type mapMeetings struct {
	window time.Duration
	last   map[NodeID]time.Duration
}

func (r *mapMeetings) record(peer NodeID, at time.Duration) { r.last[peer] = at }

func (r *mapMeetings) degree(now time.Duration) int {
	d := 0
	for peer, at := range r.last {
		if now-at <= r.window {
			d++
		} else {
			delete(r.last, peer)
		}
	}
	return d
}

func (r *mapMeetings) countPeers(now, window time.Duration) int {
	d := 0
	for _, at := range r.last {
		if now-at <= window {
			d++
		}
	}
	return d
}

// runDegreeOps drives a node and the map reference through one op
// stream and fails on the first differing answer. Each op is three
// bytes: a kind, a peer, and a time step. The clock mostly moves forward,
// but recordings and queries also land in the past and the future — the
// live ratchet's concurrent sessions and tests seeding history.
func runDegreeOps(t *testing.T, ops []byte) {
	t.Helper()
	cfg := DefaultConfig(0.1)
	cfg.Window = time.Hour
	n := mustNode(t, 0, cfg, 2*time.Hour)
	ref := &mapMeetings{window: cfg.Window, last: make(map[NodeID]time.Duration)}
	now := 10 * time.Hour
	for len(ops) >= 3 {
		kind, peer, step := ops[0], NodeID(ops[1]%24), time.Duration(ops[2])*time.Minute/4
		ops = ops[3:]
		switch kind % 6 {
		case 0, 1: // in-order meeting
			now += step
			n.RecordMeeting(peer, now)
			ref.record(peer, now)
		case 2: // out-of-order meeting, up to an hour in the past
			n.RecordMeeting(peer, now-step)
			ref.record(peer, now-step)
		case 3: // a repeat of the peer's last meeting time
			if at, ok := ref.last[peer]; ok {
				n.RecordMeeting(peer, at)
				ref.record(peer, at)
			}
		case 4: // Degree, at now or a little behind it
			at := now - step*time.Duration(kind/6%2)
			if got, want := n.Degree(at), ref.degree(at); got != want {
				t.Fatalf("Degree(%v) = %d, map walk %d", at, got, want)
			}
		case 5: // countPeers with a horizon shorter or longer than the window
			window := cfg.Window/2 + step*4
			if got, want := n.countPeers(now, window), ref.countPeers(now, window); got != want {
				t.Fatalf("countPeers(%v, %v) = %d, map walk %d", now, window, got, want)
			}
		}
		if len(n.meetings) != len(ref.last) {
			t.Fatalf("%d meetings kept, map holds %d", len(n.meetings), len(ref.last))
		}
		for i, m := range n.meetings {
			if ref.last[m.peer] != m.at || i > 0 && n.meetings[i-1].at > m.at {
				t.Fatalf("meeting %d (peer %d at %v): map has %v, or out of time order", i, m.peer, m.at, ref.last[m.peer])
			}
		}
	}
	if got, want := n.Degree(now), ref.degree(now); got != want {
		t.Fatalf("final Degree = %d, map walk %d", got, want)
	}
}

// TestDegreeMatchesMapWalk is the differential test of the time-ordered
// meeting list against the map walk it replaced, over random, partly
// out-of-order RecordMeeting/Degree/countPeers sequences.
func TestDegreeMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		ops := make([]byte, 3*rng.Intn(200))
		rng.Read(ops)
		runDegreeOps(t, ops)
	}
}

func FuzzDegree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 0, 2, 10, 4, 0, 0, 2, 1, 200, 4, 0, 0})
	f.Add([]byte{0, 1, 255, 0, 1, 255, 3, 1, 0, 4, 0, 255, 5, 0, 3})
	f.Add([]byte{2, 5, 100, 0, 6, 1, 2, 5, 250, 10, 0, 40, 4, 0, 0, 5, 0, 250})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDegreeOps(t, ops)
	})
}
