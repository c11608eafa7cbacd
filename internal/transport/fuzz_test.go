package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"achilles/internal/core"
	"achilles/internal/types"
)

// The codec fuzz targets hammer the two attacker-reachable parse
// layers: the stream framing (ReadFrame) and the frame body decoding
// plus structural validation (decodeFrameBody). Both must never panic
// and must classify errors correctly: only fully-framed garbage may be
// reported as skippable (ErrBadFrame).

func init() {
	RegisterMessages(
		&core.MsgNewView{}, &core.MsgProposal{}, &core.MsgVote{},
		&core.MsgDecide{}, &core.MsgRecoveryReq{}, &core.MsgRecoveryRpy{},
	)
}

// seedFrames returns one well-formed encoded frame per wire tag, the
// fuzz corpus's structured starting points.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	sig := bytes.Repeat([]byte{0xab}, 71)
	h := types.HashBytes([]byte("seed"))
	blk := &types.Block{
		Txs:      []types.Transaction{{Client: types.ClientIDBase, Seq: 1, Payload: []byte("tx")}},
		Op:       []byte{1},
		Parent:   h,
		View:     3,
		Height:   2,
		Proposer: 0,
	}
	msgs := []types.Message{
		&Hello{From: 1, Nonce: 42, Sig: sig},
		&Ping{},
		&types.ClientRequest{Txs: blk.Txs},
		&types.ClientReply{Block: h, View: 3, Height: 2, From: 1, TxKeys: []types.TxKey{{Client: 9, Seq: 1}}},
		&types.BlockRequest{Hash: h, From: 2},
		&types.BlockResponse{Block: blk},
		&core.MsgNewView{VC: &types.ViewCert{PrepHash: h, PrepView: 2, CurView: 3, Signer: 1, Sig: sig}},
		&core.MsgProposal{Block: blk, BC: &types.BlockCert{Hash: blk.Hash(), View: 3, Signer: 0, Sig: sig}},
		&core.MsgVote{SC: &types.StoreCert{Hash: h, View: 3, Signer: 2, Sig: sig}},
		&core.MsgDecide{CC: &types.CommitCert{Hash: h, View: 3, Signers: []types.NodeID{0, 1}, Sigs: []types.Signature{sig, sig}}},
		&core.MsgRecoveryReq{Req: &types.RecoveryReq{Nonce: 7, Signer: 2, Sig: sig}},
		&core.MsgRecoveryRpy{Rpy: &types.RecoveryRpy{PrepHash: h, PrepView: 2, CurView: 3, Target: 2, Nonce: 7, Signer: 0, Sig: sig}},
		&types.ClientRetry{TxKeys: []types.TxKey{{Client: 9, Seq: 1}}, RetryAfter: 1000, Reason: types.RetryPoolFull, From: 1},
		&types.BlockUnavailable{Hash: h, PastHorizon: true, Height: 9, From: 2},
		&types.SnapshotRequest{From: 2},
		&types.SnapshotChunk{Hash: h, Height: 9, Total: 2, Index: 1, Data: []byte("chunk"), From: 0},
	}
	out := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, m); err != nil {
			tb.Fatalf("encoding seed %T: %v", m, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

func FuzzFrameDecode(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	// Hand-crafted adversarial prefixes: truncated header, oversized
	// length, zero-length body.
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, msg, n, err := ReadFrame(r)
			if err != nil {
				if errors.Is(err, ErrBadFrame) {
					// Skippable garbage must have consumed a full frame.
					if n < 4 {
						t.Fatalf("ErrBadFrame after %d bytes", n)
					}
					continue
				}
				return
			}
			if n < 4 {
				t.Fatalf("decoded frame of %d bytes", n)
			}
			// A decoded message that implements validation must pass it:
			// ReadFrame promised it already checked.
			if v, ok := msg.(types.WireValidator); ok && v != nil {
				if verr := v.ValidateWire(); verr != nil {
					t.Fatalf("ReadFrame returned invalid message %T: %v", msg, verr)
				}
			}
		}
	})
}

func FuzzFrameBody(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b[4:]) // strip the length prefix, fuzz the binary body
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrameBody(body)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("body decode error not tagged ErrBadFrame: %v", err)
			}
			return
		}
		// The codec is canonical: a body that decodes re-encodes to
		// exactly the same bytes.
		bp, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("re-encoding decoded %s: %v", frameType(fr), err)
		}
		if !bytes.Equal((*bp)[4:], body) {
			t.Fatalf("%s re-encodes differently:\n in  %x\n out %x", frameType(fr), body, (*bp)[4:])
		}
		releaseFrameBuf(bp)
	})
}

// TestFrameGarbageBodyIsSkippable proves the framing survives a
// malformed body: the reader reports ErrBadFrame, consumes exactly the
// bad frame, and decodes the next frame on the stream.
func TestFrameGarbageBodyIsSkippable(t *testing.T) {
	garbage := []byte("this is not gob")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	buf.Write(hdr[:])
	buf.Write(garbage)
	if err := WriteFrame(&buf, 3, &Ping{}); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf.Bytes())
	_, _, n, err := ReadFrame(r)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage body: err = %v, want ErrBadFrame", err)
	}
	if n != 4+len(garbage) {
		t.Fatalf("consumed %d bytes, want %d", n, 4+len(garbage))
	}
	from, msg, _, err := ReadFrame(r)
	if err != nil {
		t.Fatalf("stream did not survive garbage frame: %v", err)
	}
	if from != 3 {
		t.Fatalf("from = %v", from)
	}
	if _, ok := msg.(*Ping); !ok {
		t.Fatalf("next frame decoded as %T", msg)
	}
}

// TestFrameRejectsStructurallyInvalid checks that cleanly decoded frames
// carrying messages that fail their own ValidateWire are dropped as
// ErrBadFrame at the codec, before any protocol code can see them.
func TestFrameRejectsStructurallyInvalid(t *testing.T) {
	vectors := []struct {
		name string
		msg  types.Message
	}{
		{"vote without certificate", &core.MsgVote{}},
		{"proposal without block", &core.MsgProposal{BC: &types.BlockCert{Sig: []byte{1}}}},
		{"decide with mismatched quorum lists", &core.MsgDecide{CC: &types.CommitCert{
			Signers: []types.NodeID{0, 1}, Sigs: []types.Signature{{1}},
		}}},
		{"new-view with oversized signature", &core.MsgNewView{VC: &types.ViewCert{
			Sig: bytes.Repeat([]byte{1}, types.MaxWireSig+1),
		}}},
		{"recovery reply without attestation", &core.MsgRecoveryRpy{}},
		{"block response with oversized op", &types.BlockResponse{Block: &types.Block{
			Op: bytes.Repeat([]byte{1}, types.MaxWireOp+1),
		}}},
		{"empty client batch", &types.ClientRequest{}},
	}
	for _, v := range vectors {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, v.msg); err != nil {
			t.Fatalf("%s: encode: %v", v.name, err)
		}
		_, _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", v.name, err)
		}
	}
}

// TestFrameTruncatedAtEveryPoint truncates a valid frame at every
// possible byte boundary; every prefix must produce a non-skippable
// error (the stream is dead) and never a panic.
func TestFrameTruncatedAtEveryPoint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 2, &types.BlockRequest{Hash: types.HashBytes([]byte("x")), From: 2}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d classified as skippable", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			// Oversized-length errors are fine too; just never a panic.
			continue
		}
	}
}
