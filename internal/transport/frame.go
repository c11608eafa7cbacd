package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"

	"achilles/internal/types"
)

// This file is the wire framing: length-prefixed frames whose bodies
// are written by the binary codec (types/wirefast.go), the only byte
// format the live transport speaks. Decoding is the trust boundary —
// everything in a frame body is attacker-controlled until it has
// passed both the bounds-checked decoder and the message's own
// ValidateWire check — so all parsing lives here and is exercised
// directly by the codec fuzz targets.
//
// Frame layout:
//
//	[u32 big-endian: body length | binaryFrameFlag]
//	[u32 LE From][u64 LE packed TraceContext][u8 tag][message body]

// MaxFrameSize bounds a single message frame (16 MiB).
const MaxFrameSize = 16 << 20

// ErrBadFrame tags frames that were framed correctly (the full body
// was read off the stream) but carried garbage: a body without the
// binary-codec marker, an unknown tag, a truncated or over-long body,
// or a message rejected by its ValidateWire. The stream framing
// survives such a frame, so readers may skip it and continue; all
// other errors from ReadFrame are I/O errors that poison the
// connection.
var ErrBadFrame = errors.New("transport: malformed frame")

// frame is the wire envelope.
type frame struct {
	From types.NodeID
	Msg  types.Message
	// Trace is the causal-tracing context riding this frame (zero when
	// untraced).
	Trace types.TraceContext
}

// RegisterMessages checks that every listed message type speaks the
// binary codec: it must implement types.WireMessage, and the decoder
// registered for its tag must yield the same concrete type. Protocol
// packages register their decoders in init; callers list the messages
// they put on the wire so a type without a codec fails at startup
// instead of at its first send. It panics on a violation.
func RegisterMessages(msgs ...types.Message) {
	for _, m := range msgs {
		wm, ok := m.(types.WireMessage)
		if !ok {
			panic(fmt.Sprintf("transport: message %T has no binary wire codec", m))
		}
		dec := types.WireDecoder(wm.WireTag())
		if dec == nil {
			panic(fmt.Sprintf("transport: no decoder registered for %T (tag 0x%02x)", m, wm.WireTag()))
		}
		if got := dec(types.NewWireReader(wm.AppendWire(nil))); reflect.TypeOf(got) != reflect.TypeOf(m) {
			panic(fmt.Sprintf("transport: tag 0x%02x of %T decodes as %T", wm.WireTag(), m, got))
		}
	}
}

// binaryFrameFlag marks a frame body written by the binary codec.
// MaxFrameSize is far below 2^31, so the length prefix's high bit is
// free to carry it. Frames from peers predating the binary codec (gob
// bodies) lack it and are refused as ErrBadFrame, never misparsed.
const binaryFrameFlag = 0x80000000

// encodeFrame encodes one length-prefixed frame into a single pooled
// buffer, so the transport issues exactly one Write per frame and
// returns the buffer to the pool afterwards (releaseFrameBuf). Besides
// saving a syscall, the single-buffer write is what lets a fault
// injector drop a whole frame without corrupting the stream framing.
func encodeFrame(f *frame) (*[]byte, error) {
	wm, ok := f.Msg.(types.WireMessage)
	if !ok {
		return nil, fmt.Errorf("transport: message %T has no binary wire codec", f.Msg)
	}
	bp := types.GetWireBuf()
	b := append(*bp, 0, 0, 0, 0)
	b = types.WireAppendU32(b, uint32(f.From))
	b = types.WireAppendU64(b, f.Trace.Pack())
	b = types.WireAppendU8(b, wm.WireTag())
	b = wm.AppendWire(b)
	*bp = b
	if len(b)-4 > MaxFrameSize {
		types.PutWireBuf(bp)
		return nil, errors.New("transport: frame exceeds MaxFrameSize")
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4)|binaryFrameFlag)
	return bp, nil
}

// releaseFrameBuf returns an encodeFrame buffer to the pool once its
// bytes are on the wire (or abandoned).
func releaseFrameBuf(bp *[]byte) { types.PutWireBuf(bp) }

// WriteFrame writes one length-prefixed frame carrying msg attributed
// to from. It is the transport's wire format, exported for tooling and
// tests that speak the protocol over raw connections. It deliberately
// performs no validation: test adversaries use it to put structurally
// invalid messages on the wire.
func WriteFrame(w io.Writer, from types.NodeID, msg types.Message) error {
	bp, err := encodeFrame(&frame{From: from, Msg: msg})
	if err != nil {
		return err
	}
	_, err = w.Write(*bp)
	releaseFrameBuf(bp)
	return err
}

// ReadFrame reads one length-prefixed frame from r and returns the
// claimed sender, the message, and the number of wire bytes consumed.
// A truncated length prefix or body, or an oversized length, is a
// fatal stream error. A body that fails decoding or the message's
// structural validation returns an error wrapping ErrBadFrame with
// the bytes still fully consumed, so callers may skip the frame.
func ReadFrame(r io.Reader) (types.NodeID, types.Message, int, error) {
	f, n, err := readFrame(r)
	if err != nil {
		return 0, nil, n, err
	}
	return f.From, f.Msg, n, nil
}

func readFrame(r io.Reader) (*frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	n := word &^ binaryFrameFlag
	if n > MaxFrameSize {
		// The claimed length cannot be trusted, so the stream cannot be
		// resynchronized: this is fatal, not an ErrBadFrame.
		return nil, 4, errors.New("transport: oversized frame")
	}
	// The body buffer is pooled: the decoder copies out every byte the
	// decoded message keeps, so the buffer goes straight back.
	bp := types.GetWireBuf()
	var buf []byte
	if cap(*bp) >= int(n) {
		buf = (*bp)[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		*bp = buf
		types.PutWireBuf(bp)
		return nil, 4, err
	}
	consumed := int(n) + 4
	var f *frame
	var err error
	if word&binaryFrameFlag == 0 {
		err = fmt.Errorf("%w: frame without the binary-codec marker (pre-binary peer?)", ErrBadFrame)
	} else {
		f, err = decodeFrameBody(buf)
	}
	*bp = buf
	types.PutWireBuf(bp)
	if err != nil {
		return nil, consumed, err
	}
	return f, consumed, nil
}

// decodeFrameBody decodes and validates one frame body (everything
// after the length word). All errors wrap ErrBadFrame: by the time the
// body is in hand the stream framing is intact regardless of its
// content.
func decodeFrameBody(buf []byte) (*frame, error) {
	r := types.NewWireReader(buf)
	var f frame
	f.From = r.NodeID()
	f.Trace = types.UnpackTraceContext(r.U64())
	tag := r.U8()
	if r.Err() {
		return nil, fmt.Errorf("%w: truncated frame header", ErrBadFrame)
	}
	dec := types.WireDecoder(tag)
	if dec == nil {
		return nil, fmt.Errorf("%w: unknown frame tag 0x%02x", ErrBadFrame, tag)
	}
	f.Msg = dec(r)
	if r.Err() || r.Len() != 0 {
		return nil, fmt.Errorf("%w: malformed frame body (tag 0x%02x)", ErrBadFrame, tag)
	}
	if v, ok := f.Msg.(types.WireValidator); ok {
		if err := v.ValidateWire(); err != nil {
			return nil, fmt.Errorf("%w: %s %v", ErrBadFrame, frameType(&f), err)
		}
	}
	return &f, nil
}

// readFrameConn reads one length-prefixed frame, returning its wire
// size alongside.
func readFrameConn(conn net.Conn) (*frame, int, error) {
	return readFrame(conn)
}

func frameType(f *frame) string {
	if f.Msg == nil {
		return "<nil>"
	}
	return f.Msg.Type()
}

// Wire tags of the transport's own messages (0x20–0x2f; the tag table
// is in DESIGN.md §12). Never reuse or renumber.
const (
	wireTagHello byte = 0x20
	wireTagPing  byte = 0x21
)

// WireTag implements types.WireMessage.
func (*Hello) WireTag() byte { return wireTagHello }

// AppendWire implements types.WireMessage.
func (h *Hello) AppendWire(b []byte) []byte {
	b = types.WireAppendU32(b, uint32(h.From))
	b = types.WireAppendU64(b, h.Nonce)
	b = types.WireAppendBytes(b, h.Sig)
	b = types.WireAppendU64(b, h.Epoch)
	return types.WireAppendHash(b, h.ConfigHash)
}

// WireTag implements types.WireMessage.
func (*Ping) WireTag() byte { return wireTagPing }

// AppendWire implements types.WireMessage.
func (*Ping) AppendWire(b []byte) []byte { return b }

func init() {
	types.RegisterWire(wireTagHello, func(r *types.WireReader) types.Message {
		return &Hello{
			From:       r.NodeID(),
			Nonce:      r.U64(),
			Sig:        r.Bytes(types.MaxWireSig),
			Epoch:      r.U64(),
			ConfigHash: r.Hash(),
		}
	})
	types.RegisterWire(wireTagPing, func(*types.WireReader) types.Message { return &Ping{} })
}
