package livenode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"bsub/internal/engine"
	"bsub/internal/workload"
)

// session is one contact session in flight: the wire half of a contact.
// Every protocol decision — election, filter contents, forwarding choices,
// copy claims — comes from the engine.Session; this type only moves the
// engine's byte steps across the connection in frames.
//
// Sessions with distinct peers run concurrently: each holds one slot of
// the node's MaxSessions semaphore and takes n.mu only for engine calls,
// never across network I/O. The engine session pins the roles and relay
// filter at HELLO/election time, so the wire protocol stays in lockstep
// even if a concurrent session changes the node's role mid-flight.
//
// The session is pipelined: outgoing frames queue in a write buffer and
// leave in one Write right before the session next has to wait on the
// socket, and inbound frames are parsed out of a read buffer. The
// protocol is half-duplex — only one side talks at a time — so a turn's
// frames always travel together and each turn costs one Write.
type session struct {
	n         *Node
	conn      io.ReadWriter
	initiator bool
	stats     SessionStats

	// timeout bounds each single frame read and each flush; the deadline
	// is re-armed per socket read and per Write (see readFrame/flush), so
	// a healthy long transfer is never cut while a stalled peer is caught
	// within one timeout.
	timeout time.Duration
	// dl arms those deadlines when the transport supports them (TCP
	// connections and net.Pipe do); nil otherwise.
	dl deadlineConn

	// wb holds the session's framing buffers, taken from the node's pool.
	wb *wireBufs

	// es is the engine session driving this contact. Its claims commit on
	// the peer's MSGACK and are refunded (aborted) when the contact dies.
	es *engine.Session

	// preTyp/preBody hold a first frame handleInbound already read off
	// the wire (to route gossip before taking a session slot); the first
	// readFrame consumes them. preTyp zero means none.
	preTyp  byte
	preBody []byte
}

// wireBufs are one session's framing buffers. The node pools them (see
// Node.takeBufs), so a contact reuses the buffers of an earlier one.
type wireBufs struct {
	// r buffers inbound bytes: a peer's whole turn usually arrives in
	// one socket read and its frames are parsed from memory.
	r *bufio.Reader
	// out holds the frames queued since the last flush; outFrames counts
	// them.
	out       []byte
	outFrames int
	// unacked are the claims of the message batch in flight, in send
	// order, each committed as its ACK arrives.
	unacked []*engine.Claim
	// acks are the IDs of the messages received in the current batch,
	// ACKed together once its END has arrived.
	acks []int
}

// deadlineConn is the subset of net.Conn the session uses to arm
// per-frame I/O deadlines.
type deadlineConn interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// writeFrame queues one frame; it leaves with the rest of the turn at the
// next flush.
func (s *session) writeFrame(typ byte, body []byte) error {
	out, start := openFrame(s.wb.out)
	return s.sealFrame(append(out, body...), start, typ)
}

// writePull queues an interest-BF frame: the pull's purpose byte, then
// the filter bytes.
func (s *session) writePull(purpose byte, filter []byte) error {
	out, start := openFrame(s.wb.out)
	return s.sealFrame(append(append(out, purpose), filter...), start, frameInterestBF)
}

// sealFrame seals the frame opened at out[start] and keeps it queued.
func (s *session) sealFrame(out []byte, start int, typ byte) error {
	out, err := sealFrame(out, start, typ)
	s.wb.out = out
	if err != nil {
		return err
	}
	s.wb.outFrames++
	return nil
}

// flush sends every queued frame in one Write under a fresh write
// deadline and accounts them. It runs right before any read that has to
// reach the socket, since the peer may be waiting on those frames, and
// after BYE.
func (s *session) flush() error {
	b := s.wb
	if len(b.out) == 0 {
		return nil
	}
	if s.dl != nil {
		_ = s.dl.SetWriteDeadline(time.Now().Add(s.timeout))
	}
	if _, err := s.conn.Write(b.out); err != nil {
		return fmt.Errorf("livenode: write frame: %w", err)
	}
	s.stats.FramesOut += b.outFrames
	s.stats.BytesOut += int64(len(b.out))
	b.out, b.outFrames = b.out[:0], 0
	return nil
}

// readFrame receives one frame and accounts it. A frame pre-read by
// handleInbound is consumed first, and one already whole in the read
// buffer is parsed from memory; otherwise the queued frames are flushed
// and the read waits on the socket under a fresh read deadline.
func (s *session) readFrame() (byte, []byte, error) {
	if s.preTyp != 0 {
		typ, body := s.preTyp, s.preBody
		s.preTyp, s.preBody = 0, nil
		s.stats.FramesIn++
		s.stats.BytesIn += int64(frameHeaderLen + len(body))
		return typ, body, nil
	}
	if !s.frameBuffered() {
		if err := s.flush(); err != nil {
			return 0, nil, err
		}
		if s.dl != nil {
			_ = s.dl.SetReadDeadline(time.Now().Add(s.timeout))
		}
	}
	typ, body, err := readFrame(s.wb.r)
	if err != nil {
		return typ, body, err
	}
	s.stats.FramesIn++
	s.stats.BytesIn += int64(frameHeaderLen + len(body))
	return typ, body, nil
}

// frameBuffered reports whether the read buffer holds the whole next
// frame, so reading it needs no socket read.
func (s *session) frameBuffered() bool {
	r := s.wb.r
	if r.Buffered() < frameHeaderLen {
		return false
	}
	hdr, _ := r.Peek(frameHeaderLen) // cannot fail: the bytes are buffered
	return uint64(r.Buffered()) >= frameHeaderLen+uint64(binary.BigEndian.Uint32(hdr[1:5]))
}

// expectFrame reads a frame and verifies its type.
func (s *session) expectFrame(want byte) ([]byte, error) {
	typ, body, err := s.readFrame()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: got frame %d, want %d", ErrProtocol, typ, want)
	}
	return body, nil
}

// sendClaimed queues one claimed message copy of the batch in flight. The
// claim is recorded before its frame is built, so whatever fails from
// here on — encoding, the flush, a missing ACK — leaves it unsettled, and
// the session's Abort refunds it when the error ends the contact. The
// receiver dedups by message ID, so a copy resent after a lost ACK can
// never double-deliver.
func (s *session) sendClaimed(c *engine.Claim) error {
	s.wb.unacked = append(s.wb.unacked, c)
	out, start := openFrame(s.wb.out)
	out, err := appendMessage(out, c.Msg(), c.Payload())
	if err != nil {
		s.wb.out = out[:start]
		return err
	}
	return s.sealFrame(out, start, frameMessage)
}

// endBatch closes the batch in flight: it queues END, then reads the
// peer's ACK burst — one MSGACK per message, in send order — committing
// each claim as its ACK arrives.
func (s *session) endBatch() error {
	if err := s.writeFrame(frameEndMessages, nil); err != nil {
		return err
	}
	for _, c := range s.wb.unacked {
		if err := s.awaitAck(c.Msg().ID); err != nil {
			return err
		}
		c.Commit()
	}
	s.wb.unacked = s.wb.unacked[:0]
	return nil
}

// awaitAck reads the frameMsgAck of message id.
func (s *session) awaitAck(id int) error {
	body, err := s.expectFrame(frameMsgAck)
	if err != nil {
		return err
	}
	got, err := decodeAck(body)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("%w: ack for message %d, want %d", ErrProtocol, got, id)
	}
	return nil
}

// recvBatch reads one message batch up to its END, handing each message
// to accept as it arrives (delivered and/or stored), then queues the
// batch's MSGACKs as one burst in arrival order. The ACKs wait for END:
// the sender reads no ACK before it has written its whole batch, so an
// ACK written earlier could stall an unbuffered transport.
func (s *session) recvBatch(during string, accept func(workload.Message, []byte)) error {
	b := s.wb
	b.acks = b.acks[:0]
	for {
		typ, body, err := s.readFrame()
		if err != nil {
			return err
		}
		if typ == frameEndMessages {
			break
		}
		if typ != frameMessage {
			return fmt.Errorf("%w: frame %d during %s", ErrProtocol, typ, during)
		}
		msg, payload, err := decodeMessage(body)
		if err != nil {
			return err
		}
		accept(msg, payload)
		b.acks = append(b.acks, msg.ID)
	}
	for _, id := range b.acks {
		out, start := openFrame(b.out)
		if err := s.sealFrame(appendAck(out, id), start, frameMsgAck); err != nil {
			return err
		}
	}
	return nil
}

// lockstep runs send/recv in initiator-first order.
func (s *session) lockstep(send, recv func() error) error {
	if s.initiator {
		if err := send(); err != nil {
			return err
		}
		return recv()
	}
	if err := recv(); err != nil {
		return err
	}
	return send()
}

// run executes one contact session over s.conn. Phases mirror Section V:
//
//  0. HELLO exchange (identity, role, degree)
//  1. election (PROMOTE/DEMOTE per the Section V-B rules)
//  2. genuine filter (consumer -> broker interest propagation; one
//     direction, both sides derive it from the shared election outcome)
//  3. relay filters + preferential forwarding (broker <-> broker)
//  4. interest-BF pulls (direct delivery + producer->broker replication)
//  5. BYE
func (s *session) run(now time.Duration) error {
	n := s.n

	// Phase 0: HELLO. BeginContact snapshots the role and degree this
	// session announces; the engine pins them for the contact.
	n.mu.Lock()
	n.eng.Purge(now)
	s.es = n.eng.BeginContact(n.arenas, nil, now)
	self := s.es.Hello()
	n.mu.Unlock()
	wireSelf := hello{
		ID:     n.cfg.ID,
		Broker: self.Broker,
		Degree: uint16(min(self.Degree, 1<<16-1)),
	}
	var peer hello
	err := s.lockstep(
		func() error { return s.writeFrame(frameHello, wireSelf.encode()) },
		func() error {
			typ, body, err := s.readFrame()
			if err != nil {
				return err
			}
			if typ == frameBusy {
				return ErrPeerBusy
			}
			if typ != frameHello {
				return fmt.Errorf("%w: got frame %d, want %d", ErrProtocol, typ, frameHello)
			}
			peer, err = decodeHello(body)
			return err
		})
	if err != nil {
		return err
	}
	if peer.ID == n.cfg.ID {
		return fmt.Errorf("%w: peer claims our ID %d", ErrProtocol, peer.ID)
	}
	s.stats.Peer = peer.ID
	s.stats.Phase = PhaseHello

	// Phase 1: election. Each side announces one action for the peer;
	// the engine settles both (including the mutual-promotion tie-break).
	n.mu.Lock()
	s.es.SetPeer(engine.Hello{ID: int(peer.ID), Broker: peer.Broker, Degree: int(peer.Degree)})
	myAction := s.es.Elect()
	n.mu.Unlock()
	var peerAction byte
	err = s.lockstep(
		func() error { return s.writeFrame(frameElection, []byte{byte(myAction)}) },
		func() error {
			body, err := s.expectFrame(frameElection)
			if err != nil {
				return err
			}
			if len(body) != 1 || body[0] > electDemote {
				return fmt.Errorf("%w: bad election frame", ErrProtocol)
			}
			peerAction = body[0]
			return nil
		})
	if err != nil {
		return err
	}
	n.mu.Lock()
	s.es.Apply(myAction, engine.Action(peerAction))
	n.mu.Unlock()
	s.stats.Phase = PhaseElection

	// Phase 2: genuine filter, consumer -> broker only. Both sides agree
	// on the direction because both computed the same election outcome.
	switch {
	case s.es.SendsGenuine():
		n.mu.Lock()
		data, err := s.es.GenuineOut()
		n.mu.Unlock()
		if err != nil {
			return err
		}
		if err := s.writeFrame(frameGenuine, data); err != nil {
			return err
		}
	case s.es.ReceivesGenuine():
		body, err := s.expectFrame(frameGenuine)
		if err != nil {
			return err
		}
		n.mu.Lock()
		err = s.es.AbsorbGenuine(body)
		n.mu.Unlock()
		if err != nil {
			return err
		}
		if n.cfg.OnPeerGenuine != nil {
			n.cfg.OnPeerGenuine(peer.ID, body)
		}
	}
	s.stats.Phase = PhaseGenuine

	// Phase 3: relay exchange between brokers.
	if s.es.RelayExchange() {
		if err := s.relayPhase(now); err != nil {
			return err
		}
		s.stats.Phase = PhaseRelay
	}

	// Phase 4: interest pulls, initiator first.
	for _, asker := range []bool{s.initiator, !s.initiator} {
		if asker {
			if err := s.askDelivery(peer.ID, now); err != nil {
				return err
			}
			if s.es.SelfBroker() {
				if err := s.askReplication(now); err != nil {
					return err
				}
			}
		} else {
			if err := s.answerDelivery(); err != nil {
				return err
			}
			if s.es.PeerBroker() {
				if err := s.answerReplication(); err != nil {
					return err
				}
			}
		}
	}
	s.stats.Phase = PhasePull

	// Phase 5: BYE.
	err = s.lockstep(
		func() error { return s.writeFrame(frameBye, nil) },
		func() error {
			_, err := s.expectFrame(frameBye)
			return err
		})
	if err != nil {
		return err
	}
	return s.flush()
}

// Election actions; the byte values match engine.Action.
const (
	electNone byte = iota
	electPromote
	electDemote
)

// relayPhase exchanges relay filters, runs preferential forwarding both
// ways, then merges (M-merge by default). The engine snapshots the peer's
// pre-merge filter, so forwarding decisions never see merged state.
func (s *session) relayPhase(now time.Duration) error {
	n := s.n
	n.mu.Lock()
	rBytes, err := s.es.RelayOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	err = s.lockstep(
		func() error { return s.writeFrame(frameRelay, rBytes) },
		func() error {
			body, err := s.expectFrame(frameRelay)
			if err != nil {
				return err
			}
			n.mu.Lock()
			err = s.es.SetPeerRelay(body)
			n.mu.Unlock()
			return err
		})
	if err != nil {
		return err
	}

	// Initiator sends its candidates first. Each copy is claimed through
	// the engine immediately before it travels — a concurrent session may
	// already have spent it, and two sessions must never move the same
	// carried copy.
	sendCands := func() error {
		n.mu.Lock()
		cands, err := s.es.ForwardCandidates()
		n.mu.Unlock()
		if err != nil {
			return err
		}
		for _, c := range cands {
			n.mu.Lock()
			claim, ok := s.es.ClaimCarried(c.Msg.ID)
			n.mu.Unlock()
			if claim == nil {
				if !ok {
					break
				}
				continue
			}
			if err := s.sendClaimed(claim); err != nil {
				return err
			}
		}
		return s.endBatch()
	}
	recvCands := func() error {
		return s.recvBatch("relay forwarding", func(msg workload.Message, payload []byte) {
			n.acceptCarried(msg, payload, now)
		})
	}
	if err := s.lockstep(sendCands, recvCands); err != nil {
		return err
	}

	n.mu.Lock()
	err = s.es.MergeRelay()
	n.mu.Unlock()
	return err
}

// Interest-BF purposes.
const (
	pullDelivery byte = iota + 1
	pullReplication
)

// askDelivery requests messages matching our interests and ingests the
// response.
func (s *session) askDelivery(peerID uint32, now time.Duration) error {
	n := s.n
	n.mu.Lock()
	fBytes, err := s.es.InterestOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writePull(pullDelivery, fBytes); err != nil {
		return err
	}
	return s.recvBatch("delivery pull", func(msg workload.Message, payload []byte) {
		// The match was probabilistic (Bloom filter); the engine counts a
		// delivery only if the copy is live and we really want it — a
		// mismatch is a false-positive transfer. Either way the copy is
		// ACKed: the ACK confirms receipt, not interest.
		n.mu.Lock()
		acc := n.eng.ReceiveDelivery(msg, int(peerID), now)
		n.mu.Unlock()
		if acc.Delivered {
			n.deliver(msg, payload, acc.Direct)
		}
	})
}

// answerDelivery serves the peer's delivery request from our produced
// messages (direct) and carried copies (broker-mediated; a carried
// delivery hands the copy off, per Section V-D). Each copy is claimed
// through the engine immediately before it travels and refunded unless
// the peer ACKs it — a contact severed mid-transfer loses no copies.
func (s *session) answerDelivery() error {
	n := s.n
	body, err := s.readPull(pullDelivery)
	if err != nil {
		return err
	}
	n.mu.Lock()
	transfers, err := s.es.DeliveryMatches(body)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	for _, t := range transfers {
		n.mu.Lock()
		var claim *engine.Claim
		var ok bool
		if t.Carried {
			claim, ok = s.es.ClaimCarried(t.Msg.ID)
		} else {
			claim, ok = s.es.ClaimDirect(t.Msg.ID)
		}
		n.mu.Unlock()
		if claim == nil {
			if !ok {
				break
			}
			continue
		}
		if err := s.sendClaimed(claim); err != nil {
			return err
		}
	}
	return s.endBatch()
}

// askReplication advertises our relay filter and stores the returned
// copies.
func (s *session) askReplication(now time.Duration) error {
	n := s.n
	n.mu.Lock()
	fBytes, err := s.es.RelayAdvertOut()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writePull(pullReplication, fBytes); err != nil {
		return err
	}
	return s.recvBatch("replication pull", func(msg workload.Message, payload []byte) {
		n.acceptCarried(msg, payload, now)
	})
}

// answerReplication replicates matching produced messages to the broker,
// bounded by the copy limit; an exhausted message stops replicating but
// stays in the produced store until TTL so later contacts can still serve
// matching subscribers directly. A copy is claimed (decremented) through
// the engine before it travels and refunded if the peer's ACK never
// arrives.
func (s *session) answerReplication() error {
	n := s.n
	body, err := s.readPull(pullReplication)
	if err != nil {
		return err
	}
	n.mu.Lock()
	transfers, err := s.es.ReplicationMatches(body)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	for _, t := range transfers {
		n.mu.Lock()
		claim, ok := s.es.ClaimReplication(t.Msg.ID)
		n.mu.Unlock()
		if claim == nil {
			if !ok {
				break
			}
			continue
		}
		if err := s.sendClaimed(claim); err != nil {
			return err
		}
	}
	return s.endBatch()
}

// readPull reads an interest-BF frame of the expected purpose and returns
// its filter bytes for the engine to decode.
func (s *session) readPull(purpose byte) ([]byte, error) {
	body, err := s.expectFrame(frameInterestBF)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != purpose {
		return nil, fmt.Errorf("%w: interest BF purpose mismatch", ErrProtocol)
	}
	return body[1:], nil
}
