package livenode

import (
	"bytes"
	"testing"
	"time"

	"bsub/internal/workload"
)

// FuzzDecodeMessage hardens the message decoder against adversarial peers.
func FuzzDecodeMessage(f *testing.F) {
	seed, err := appendMessage(nil, workload.Message{
		ID:        77,
		Key:       "alpha",
		Extra:     []workload.Key{"beta"},
		Origin:    3,
		CreatedAt: time.Minute,
	}, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 25))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, payload, err := decodeMessage(data)
		if err != nil {
			return
		}
		if len(msg.MatchKeys()) == 0 {
			t.Fatal("decoded message without keys")
		}
		if msg.Size != len(payload) {
			t.Fatalf("size %d != payload %d", msg.Size, len(payload))
		}
		// A successfully decoded message must re-encode.
		if _, err := appendMessage(nil, msg, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

// FuzzReadFrame hardens the CRC framing: adversarial bytes must never
// decode to an oversized body, a well-formed frame must round-trip, and
// a single corrupted byte must be rejected.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameHello, []byte("body")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{frameMessage, 0, 0, 0, 5, 1, 2})
	f.Add(bytes.Repeat([]byte{0}, frameHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Adversarial decode must not panic and must bound the body.
		if typ, body, err := readFrame(bytes.NewReader(data)); err == nil {
			if len(body) > maxFrameBytes {
				t.Fatalf("frame type %d with oversized body %d", typ, len(body))
			}
			// A frame that decoded must re-encode to the bytes it was
			// decoded from (canonical framing).
			var re bytes.Buffer
			if err := writeFrame(&re, typ, body); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
				t.Fatal("decoded frame re-encodes differently")
			}
		}

		// Treat data as a frame body: it must round-trip...
		body := data
		if len(body) > maxFrameBytes {
			body = body[:maxFrameBytes]
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, frameMessage, body); err != nil {
			t.Fatalf("write: %v", err)
		}
		clean := append([]byte(nil), wire.Bytes()...)
		typ, got, err := readFrame(bytes.NewReader(clean))
		if err != nil || typ != frameMessage || !bytes.Equal(got, body) {
			t.Fatalf("round trip: typ=%d err=%v", typ, err)
		}
		// ...and corrupting one byte of the type, CRC, or body (never
		// the length field, whose damage may legitimately surface as a
		// size/truncation error instead) must be rejected.
		positions := []int{0, 5, 6, 7, 8}
		if len(body) > 0 {
			positions = append(positions, frameHeaderLen+int(uint(len(data))%uint(len(body))))
		}
		pos := positions[int(uint(len(data)))%len(positions)]
		clean[pos] ^= 1 << (uint(len(data)) % 8)
		if _, _, err := readFrame(bytes.NewReader(clean)); err == nil {
			t.Fatalf("corrupted byte %d accepted", pos)
		}
	})
}

// TestReadFrameTruncationTable: every strict prefix of a valid frame —
// the torn writes a severed contact produces — must fail cleanly, never
// panic or decode.
func TestReadFrameTruncationTable(t *testing.T) {
	for _, tt := range []struct {
		name string
		typ  byte
		body []byte
	}{
		{name: "empty body", typ: frameBye, body: nil},
		{name: "short body", typ: frameElection, body: []byte{electNone}},
		{name: "message body", typ: frameMessage, body: bytes.Repeat([]byte("x"), 64)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeFrame(&buf, tt.typ, tt.body); err != nil {
				t.Fatal(err)
			}
			full := buf.Bytes()
			for n := 0; n < len(full); n++ {
				typ, body, err := readFrame(bytes.NewReader(full[:n]))
				if err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded: typ=%d body=%q",
						n, len(full), typ, body)
				}
			}
			if typ, body, err := readFrame(bytes.NewReader(full)); err != nil ||
				typ != tt.typ || !bytes.Equal(body, tt.body) {
				t.Fatalf("full frame: typ=%d err=%v", typ, err)
			}
		})
	}
}

// FuzzDecodeHello hardens the handshake decoder.
func FuzzDecodeHello(f *testing.F) {
	f.Add(hello{ID: 9, Broker: true, Degree: 4}.encode())
	f.Add([]byte{})
	// Non-canonical broker byte: must be rejected, not silently coerced.
	f.Add([]byte{protoVersion, 48, 48, 48, 48, 48, 48, 48})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if got := h.encode(); !bytes.Equal(got, data) {
			t.Fatalf("hello round trip changed bytes: %v vs %v", got, data)
		}
	})
}
