package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"achilles/internal/core"
	"achilles/internal/types"
)

// codecCase is one round-trip vector: msg is encoded; the decoded
// message must deep-equal want (msg itself when nil — zero-length
// slices decode as nil, so those cases name the canonical form).
type codecCase struct {
	name string
	msg  types.WireMessage
	want types.Message
}

// codecCases covers every registered non-test tag with fully populated
// fields, nil optional fields and zero-length slices. Blocks are never
// hashed here, so their lazily cached digest stays zero on both sides.
func codecCases() []codecCase {
	sig := bytes.Repeat([]byte{0xab}, 71)
	h := types.HashBytes([]byte("codec"))
	blk := &types.Block{
		Txs: []types.Transaction{
			{Client: types.ClientIDBase + 4, Seq: 9, Payload: []byte("payload"), Created: 1234},
			{Client: types.ClientIDBase + 5, Seq: 1},
		},
		Op: []byte{7, 7}, Parent: h, View: 6, Height: 11, Proposer: 2, Proposed: 99,
	}
	bc := &types.BlockCert{Hash: h, View: 6, Height: 11, Signer: 2, Sig: sig}
	cc := &types.CommitCert{Hash: h, View: 6, Height: 11, Signers: []types.NodeID{0, 2}, Sigs: []types.Signature{sig, sig}}
	vc := &types.ViewCert{PrepHash: h, PrepView: 5, PrepHeight: 10, CurView: 6, Signer: 1, Sig: sig}
	rpy := &types.RecoveryRpy{PrepHash: h, PrepView: 5, PrepHeight: 10, CurView: 6, Target: 2, Nonce: 77, Signer: 0, Sig: sig}
	keys := []types.TxKey{{Client: types.ClientIDBase, Seq: 1}, {Client: types.ClientIDBase + 1, Seq: 2}}
	return []codecCase{
		{name: "hello", msg: &Hello{From: 1, Nonce: 42, Sig: sig, Epoch: 3, ConfigHash: h}},
		{name: "hello/unsigned-client", msg: &Hello{From: types.ClientIDBase + 1, Nonce: 1}},
		{name: "hello/empty-sig", msg: &Hello{From: 2, Sig: types.Signature{}}, want: &Hello{From: 2}},
		{name: "ping", msg: &Ping{}},
		{name: "client-request", msg: &types.ClientRequest{Txs: blk.Txs}},
		{name: "client-request/empty", msg: &types.ClientRequest{Txs: []types.Transaction{}}, want: &types.ClientRequest{}},
		{name: "client-reply", msg: &types.ClientReply{Block: h, View: 6, Height: 11, TxKeys: keys, Certified: true, From: 1}},
		{name: "client-reply/no-keys", msg: &types.ClientReply{TxKeys: []types.TxKey{}, From: 2}, want: &types.ClientReply{From: 2}},
		{name: "client-retry", msg: &types.ClientRetry{TxKeys: keys, RetryAfter: 5e6, Reason: types.RetryRateLimited, From: 1}},
		{name: "block-request", msg: &types.BlockRequest{Hash: h, From: 2}},
		{name: "block-response", msg: &types.BlockResponse{Block: blk}},
		{name: "block-response/nil-block", msg: &types.BlockResponse{}},
		{name: "block-unavailable", msg: &types.BlockUnavailable{Hash: h, PastHorizon: true, Height: 900, From: 1}},
		{name: "snapshot-request", msg: &types.SnapshotRequest{From: 2}},
		{name: "snapshot-chunk", msg: &types.SnapshotChunk{Hash: h, Height: 512, Total: 3, Index: 1, Data: []byte("chunk"), From: 0}},
		{name: "snapshot-chunk/empty-data", msg: &types.SnapshotChunk{Hash: h, Height: 1, Total: 1, Data: []byte{}}, want: &types.SnapshotChunk{Hash: h, Height: 1, Total: 1}},
		{name: "proposal", msg: &core.MsgProposal{Block: blk, BC: bc}},
		{name: "proposal/nil", msg: &core.MsgProposal{}},
		{name: "vote", msg: &core.MsgVote{SC: &types.StoreCert{Hash: h, View: 6, Height: 11, Signer: 1, Sig: sig}}},
		{name: "vote/nil", msg: &core.MsgVote{}},
		{name: "decide", msg: &core.MsgDecide{CC: cc}},
		{name: "decide/empty-quorum", msg: &core.MsgDecide{CC: &types.CommitCert{Hash: h, Signers: []types.NodeID{}, Sigs: []types.Signature{}}},
			want: &core.MsgDecide{CC: &types.CommitCert{Hash: h}}},
		{name: "new-view", msg: &core.MsgNewView{VC: vc, CC: cc}},
		{name: "new-view/no-cc", msg: &core.MsgNewView{VC: vc}},
		{name: "recovery-req", msg: &core.MsgRecoveryReq{Req: &types.RecoveryReq{Nonce: 7, Signer: 2, Sig: sig}}},
		{name: "recovery-req/nil", msg: &core.MsgRecoveryReq{}},
		{name: "recovery-rpy", msg: &core.MsgRecoveryRpy{Rpy: rpy, Block: blk, BC: bc, CC: cc}},
		{name: "recovery-rpy/attestation-only", msg: &core.MsgRecoveryRpy{Rpy: rpy}},
	}
}

// TestCodecRoundTripEveryTag: encode → decode → deep-equal, and the
// decoded message re-encodes to identical bytes, for every registered
// tag. A tag registered without a vector here fails the test.
func TestCodecRoundTripEveryTag(t *testing.T) {
	covered := map[byte]bool{}
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			tag := c.msg.WireTag()
			covered[tag] = true
			dec := types.WireDecoder(tag)
			if dec == nil {
				t.Fatalf("tag 0x%02x has no decoder", tag)
			}
			enc := c.msg.AppendWire(nil)
			r := types.NewWireReader(enc)
			got := dec(r)
			if r.Err() || r.Len() != 0 {
				t.Fatalf("decode failed (err=%v, %d bytes left)", r.Err(), r.Len())
			}
			want := c.want
			if want == nil {
				want = c.msg
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", want, got)
			}
			if re := got.(types.WireMessage).AppendWire(nil); !bytes.Equal(re, enc) {
				t.Fatalf("re-encoding differs:\n first %x\n again %x", enc, re)
			}
			// Every proper prefix is a decode error, never a panic.
			for cut := 0; cut < len(enc); cut++ {
				r := types.NewWireReader(enc[:cut])
				dec(r)
				if !r.Err() && r.Len() == 0 {
					t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(enc))
				}
			}
		})
	}
	for tag := 0; tag < 0xf0; tag++ {
		if types.WireDecoder(byte(tag)) != nil && !covered[byte(tag)] {
			t.Errorf("registered tag 0x%02x has no round-trip vector", tag)
		}
	}
}

// TestForgedCountsCannotForceAllocation: a frame claiming a huge list
// or byte string backed by a handful of bytes is refused before the
// decoder allocates for the claim.
func TestForgedCountsCannotForceAllocation(t *testing.T) {
	u32 := func(v uint32) []byte { return types.WireAppendU32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hash := make([]byte, 32)
	vectors := []struct {
		name string
		tag  byte
		body []byte
	}{
		{"client-request tx count", 0x10, u32(types.MaxWireTxs)},
		{"client-request payload length", 0x10, cat(u32(1), make([]byte, 16), u32(types.MaxWireTxPayload))},
		{"client-reply tx-key count", 0x11, cat(hash, make([]byte, 16), u32(types.MaxWireTxKeys))},
		{"decide signer count", 0x03, cat([]byte{1}, hash, make([]byte, 16), u32(types.MaxWireSigners))},
		{"decide signature count", 0x03, cat([]byte{1}, hash, make([]byte, 16), u32(0), u32(types.MaxWireSigners))},
		{"snapshot-chunk data length", 0x17, cat(hash, make([]byte, 16), u32(types.MaxWireSnapChunk))},
		{"block-response tx count", 0x14, cat([]byte{1}, hash, make([]byte, 28), u32(0), u32(types.MaxWireTxs))},
	}
	for _, v := range vectors {
		body := cat(u32(1), make([]byte, 8), []byte{v.tag}, v.body)
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		_, err := decodeFrameBody(body)
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", v.name, err)
		}
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: decoding a forged claim allocated %d bytes", v.name, alloc)
		}
	}
}

// TestGobFrameRefused: a genuine gob frame, as builds that predate the
// binary codec wrote it (length word without the binary marker, gob
// body), is a skippable ErrBadFrame — never misparsed — and the stream
// survives it.
func TestGobFrameRefused(t *testing.T) {
	type legacyFrame struct {
		From  types.NodeID
		Msg   types.Message
		Trace types.TraceContext
	}
	gob.Register(&types.BlockRequest{})
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&legacyFrame{From: 2, Msg: &types.BlockRequest{From: 2}}); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	binary.Write(&stream, binary.BigEndian, uint32(body.Len()))
	stream.Write(body.Bytes())
	if err := WriteFrame(&stream, 3, &Ping{}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream.Bytes())
	if _, _, n, err := ReadFrame(r); !errors.Is(err, ErrBadFrame) || n != 4+body.Len() {
		t.Fatalf("gob frame: n=%d err=%v, want ErrBadFrame after %d bytes", n, err, 4+body.Len())
	}
	if _, msg, _, err := ReadFrame(r); err != nil {
		t.Fatalf("stream did not survive the gob frame: %v", err)
	} else if _, ok := msg.(*Ping); !ok {
		t.Fatalf("next frame decoded as %T", msg)
	}
}

// codecless is a message type with no binary codec.
type codecless struct{}

func (*codecless) Type() string { return "test/codecless" }
func (*codecless) Size() int    { return 0 }

// mistagged claims a tag whose decoder yields another type.
type mistagged struct{ codecless }

func (*mistagged) WireTag() byte              { return 0x01 }
func (*mistagged) AppendWire(b []byte) []byte { return b }

// unregistered claims a tag nobody registered.
type unregistered struct{ codecless }

func (*unregistered) WireTag() byte              { return 0xef }
func (*unregistered) AppendWire(b []byte) []byte { return b }

// TestRegisterMessagesRejectsCodeclessTypes: startup registration
// panics for a type the transport could not put on the wire, and
// encodeFrame refuses one rather than falling back to another format.
func TestRegisterMessagesRejectsCodeclessTypes(t *testing.T) {
	for _, m := range []types.Message{&codecless{}, &mistagged{}, &unregistered{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterMessages(%T) did not panic", m)
				}
			}()
			RegisterMessages(m)
		}()
	}
	if err := WriteFrame(&bytes.Buffer{}, 1, &codecless{}); err == nil {
		t.Error("WriteFrame encoded a message without a binary codec")
	}
	// Every shipped message passes.
	for _, c := range codecCases() {
		RegisterMessages(c.msg)
	}
}
