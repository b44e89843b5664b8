// Package livenode is the prototype HUNET system the paper leaves as
// future work ("A prototype HUNET system will be our future work"): a
// live, wire-level implementation of a B-SUB node that runs the protocol
// over real TCP connections instead of inside the simulator.
//
// Each process owns one node. When two devices come into contact (the
// caller dials Meet), the pair runs one half-duplex contact session that
// mirrors Section V:
//
//	HELLO exchange          identity, role, degree
//	election step           PROMOTE / DEMOTE per the Section V-B rules
//	genuine filter          consumer -> broker interest propagation, one
//	                        direction derived from the election outcome
//	relay filters           broker<->broker, preferential forwarding,
//	                        then M-merge
//	interest BF + messages  direct and broker-mediated delivery
//
// All filters travel in the Section VI-C compact encoding (package tcbf's
// wire format); messages are length-prefixed binary frames. The session
// is half-duplex and pipelined: a side queues its whole turn and sends it
// in one Write just before it next waits on the socket.
//
// All protocol decisions come from the transport-agnostic engine package
// (internal/engine): a session drives an engine.Session step by step and
// ships the resulting byte encodings as frames. This package owns only
// framing, deadlines, acknowledgements, and concurrency.
//
// # Concurrency
//
// A node runs sessions with distinct peers in parallel, bounded by
// Config.MaxSessions. All protocol state lives in a single engine.Node
// guarded by one mutex, which a session takes only around individual
// engine calls, never across network I/O: the engine snapshots filters
// at the start of each phase and merges after the exchange
// (snapshot–exchange–commit), and message copies are claimed through the
// engine immediately before they travel, so two sessions can never spend
// the same copy.
//
// A node at capacity answers an inbound contact with a single BUSY frame
// instead of slamming the connection; the dialer's Meet sees ErrPeerBusy
// and retries with exponential backoff, up to Config.MeetAttempts times.
// Every contact attempt — completed, failed, refused — is recorded as a
// SessionStats record (see Config.OnSession) and aggregated into the
// counters returned by Node.Stats.
//
// # Failure model
//
// Human contacts end without warning, so a session must be safe to sever
// at any byte. Every frame carries a CRC32 trailer in its header; a flaky
// link surfaces as ErrCorruptFrame instead of decoder garbage. Each frame
// read and each turn's write is bounded by its own deadline
// (Config.SessionTimeout), so a stalled peer is detected within one
// timeout however long the healthy transfer runs. Message hand-off is acknowledged by per-message
// ACKs, sent as one burst per phase: the sender writes a whole batch and
// its END, the receiver processes each message on arrival and then
// answers with one frameMsgAck per message. A copy claimed from a store
// is spent only when its ACK arrives, and a claim whose ACK never comes is
// refunded when the session aborts — copy counts are conserved across
// severed contacts, and the receiver dedups by message ID, so a lost ACK
// can never double-deliver.
package livenode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"bsub/internal/workload"
)

// Frame types of the contact-session protocol.
const (
	frameHello byte = iota + 1
	frameElection
	frameGenuine
	frameRelay
	frameInterestBF
	frameMessage
	frameEndMessages
	frameBye
	// frameBusy is a responder's whole answer when it is at MaxSessions
	// capacity: sent instead of the HELLO reply, then the connection
	// closes. The dialer maps it to ErrPeerBusy and may retry.
	frameBusy
	// frameMsgAck acknowledges one frameMessage by message ID. A batch's
	// ACKs follow its END as one burst, in message order. The sender of a
	// claimed copy treats the copy as spent only once the ACK arrives;
	// until then an aborted session refunds the claim.
	frameMsgAck
	// frameGossip is a membership datagram riding outside contact
	// sessions: a dialer opens a connection, sends one gossip frame, and
	// reads one gossip frame back. The payload is opaque to this package
	// (the mesh layer's membership codec); the responder answers through
	// Config.GossipHandler without taking a session slot, so heartbeats
	// keep flowing while every contact slot is busy.
	frameGossip
)

// protoVersion is the contact-protocol version announced in the HELLO.
// v2 added the CRC32 frame trailer and per-message ACKs; v3 is the
// engine-driven protocol — the genuine filter travels in one direction
// only (consumer -> broker, derived from the election outcome) and relay
// filters use the partitioned encoding. v4 changes ACK timing only, with
// no new frame: a receiver sends a batch's MSGACKs as one burst after its
// END, where v3 answered each message before the next was sent. A v3
// sender would wait for an ACK a v4 receiver holds back until END, and
// stall until SessionTimeout. Mismatched peers must fail fast instead of
// trading garbage frames or stalling.
const protoVersion = 4

// maxFrameBytes bounds a frame body; filters are tens of bytes and
// messages are capped at 140 B payloads, so 64 KiB is generous.
const maxFrameBytes = 64 * 1024

// frameHeaderLen is the wire size of a frame header:
// type (1) + body length (4) + CRC32 of type, length, and body (4).
const frameHeaderLen = 9

// ieeeTable is the CRC32 table shared by frame writers and readers.
var ieeeTable = crc32.MakeTable(crc32.IEEE)

var (
	// ErrFrameTooLarge is returned when a peer announces an oversized frame.
	ErrFrameTooLarge = errors.New("livenode: frame exceeds size limit")
	// ErrProtocol is returned on any wire-protocol violation.
	ErrProtocol = errors.New("livenode: protocol violation")
	// ErrCorruptFrame is returned when a frame fails its CRC32 check — a
	// flaky link flipped bits in flight.
	ErrCorruptFrame = errors.New("livenode: frame failed CRC check")
	// ErrVersionMismatch is returned when the peer's HELLO announces a
	// different contact-protocol version.
	ErrVersionMismatch = errors.New("livenode: peer speaks a different protocol version")
)

// frameCRC computes the header's CRC32 over the type byte, the length
// field, and the body.
func frameCRC(hdr []byte, body []byte) uint32 {
	sum := crc32.Update(0, ieeeTable, hdr[:5])
	return crc32.Update(sum, ieeeTable, body)
}

// openFrame appends a placeholder frame header to dst and returns the
// frame's start offset; the caller appends the body and seals the frame
// with sealFrame. Frames built in place this way cost no copy of the body.
func openFrame(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, frameHeaderLen)...), len(dst)
}

// sealFrame fills in the header of the frame that starts at dst[start]:
// its type, its body length, and the CRC over both and the body. An
// oversized frame is cut back off dst.
func sealFrame(dst []byte, start int, typ byte) ([]byte, error) {
	frame := dst[start:]
	n := len(frame) - frameHeaderLen
	if n > maxFrameBytes {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(n))
	binary.BigEndian.PutUint32(frame[5:], frameCRC(frame[:5], frame[frameHeaderLen:]))
	return dst, nil
}

// writeFrame sends one type-tagged, length-prefixed, CRC-trailed frame.
// Header and body are coalesced into a single Write so a fault or a
// concurrent close between syscalls can never emit a bare header. Contact
// sessions queue their frames instead (see session.flush); this serves
// the one-frame exchanges outside them: BUSY and gossip.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	buf, start := openFrame(make([]byte, 0, frameHeaderLen+len(body)))
	buf, err := sealFrame(append(buf, body...), start, typ)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("livenode: write frame: %w", err)
	}
	return nil
}

// readFrame receives one frame and verifies its CRC.
func readFrame(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("livenode: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("livenode: read frame body: %w", err)
	}
	if want := binary.BigEndian.Uint32(hdr[5:]); frameCRC(hdr[:5], body) != want {
		return 0, nil, fmt.Errorf("%w: frame type %d, %d-byte body", ErrCorruptFrame, hdr[0], n)
	}
	return hdr[0], body, nil
}

// expectFrame reads a frame and verifies its type.
func expectFrame(r io.Reader, want byte) ([]byte, error) {
	typ, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: got frame %d, want %d", ErrProtocol, typ, want)
	}
	return body, nil
}

// hello is the identity handshake payload.
type hello struct {
	ID     uint32
	Broker bool
	Degree uint16
}

func (h hello) encode() []byte {
	out := make([]byte, 8)
	out[0] = protoVersion
	binary.BigEndian.PutUint32(out[1:], h.ID)
	if h.Broker {
		out[5] = 1
	}
	binary.BigEndian.PutUint16(out[6:], h.Degree)
	return out
}

func decodeHello(body []byte) (hello, error) {
	if len(body) != 8 {
		return hello{}, fmt.Errorf("%w: hello is %d bytes", ErrProtocol, len(body))
	}
	if body[0] != protoVersion {
		return hello{}, fmt.Errorf("%w: peer speaks v%d, this node v%d",
			ErrVersionMismatch, body[0], protoVersion)
	}
	if body[5] > 1 {
		return hello{}, fmt.Errorf("%w: hello broker byte %d", ErrProtocol, body[5])
	}
	return hello{
		ID:     binary.BigEndian.Uint32(body[1:]),
		Broker: body[5] == 1,
		Degree: binary.BigEndian.Uint16(body[6:]),
	}, nil
}

// appendAck appends a frameMsgAck body to dst: the acknowledged message
// ID.
func appendAck(dst []byte, id int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// decodeAck parses a frameMsgAck body.
func decodeAck(body []byte) (int, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: ack is %d bytes", ErrProtocol, len(body))
	}
	return int(binary.BigEndian.Uint64(body)), nil
}

// appendMessage appends the wire form of a message with its payload to
// dst. On error the returned slice is dst with a partial body appended.
func appendMessage(dst []byte, m workload.Message, payload []byte) ([]byte, error) {
	keys := m.MatchKeys()
	if len(keys) > 255 {
		return dst, fmt.Errorf("%w: %d keys", ErrProtocol, len(keys))
	}
	out := binary.BigEndian.AppendUint64(dst, uint64(m.ID))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Origin))
	out = binary.BigEndian.AppendUint64(out, uint64(m.CreatedAt))
	out = append(out, byte(len(keys)))
	for _, k := range keys {
		if len(k) > 255 {
			return out, fmt.Errorf("%w: key of %d bytes", ErrProtocol, len(k))
		}
		out = append(out, byte(len(k)))
		out = append(out, k...)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return out, nil
}

// decodeMessage parses a wire message.
func decodeMessage(body []byte) (workload.Message, []byte, error) {
	var m workload.Message
	if len(body) < 21 {
		return m, nil, fmt.Errorf("%w: short message frame", ErrProtocol)
	}
	m.ID = int(binary.BigEndian.Uint64(body))
	m.Origin = int(binary.BigEndian.Uint32(body[8:]))
	m.CreatedAt = time.Duration(binary.BigEndian.Uint64(body[12:]))
	nKeys := int(body[20])
	if nKeys == 0 {
		return m, nil, fmt.Errorf("%w: message without keys", ErrProtocol)
	}
	rest := body[21:]
	keys := make([]workload.Key, 0, nKeys)
	for i := 0; i < nKeys; i++ {
		if len(rest) < 1 {
			return m, nil, fmt.Errorf("%w: truncated key table", ErrProtocol)
		}
		kl := int(rest[0])
		rest = rest[1:]
		if len(rest) < kl {
			return m, nil, fmt.Errorf("%w: truncated key", ErrProtocol)
		}
		keys = append(keys, workload.Key(rest[:kl]))
		rest = rest[kl:]
	}
	if len(rest) < 4 {
		return m, nil, fmt.Errorf("%w: missing payload length", ErrProtocol)
	}
	pl := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) != pl {
		return m, nil, fmt.Errorf("%w: payload length mismatch", ErrProtocol)
	}
	m.Key = keys[0]
	if len(keys) > 1 {
		m.Extra = keys[1:]
	}
	m.Size = pl
	payload := make([]byte, pl)
	copy(payload, rest)
	return m, payload, nil
}
