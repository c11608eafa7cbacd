package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"achilles/internal/core"
	"achilles/internal/types"
)

func testProposal() *core.MsgProposal {
	blk := &types.Block{
		Txs: []types.Transaction{
			{Client: types.ClientIDBase + 4, Seq: 9, Payload: []byte("payload-a"), Created: 1234},
			{Client: types.ClientIDBase + 5, Seq: 1, Payload: nil},
		},
		Op:       []byte{7, 7},
		Parent:   types.HashBytes([]byte("parent")),
		View:     6,
		Height:   11,
		Proposer: 2,
		Proposed: 99,
	}
	return &core.MsgProposal{
		Block: blk,
		BC: &types.BlockCert{
			Hash: blk.Hash(), View: 6, Height: 11, Signer: 2,
			Sig: bytes.Repeat([]byte{0xcd}, 71),
		},
	}
}

// TestFastFrameRoundTrip pins the pooled binary codec on the hot
// messages: the binary-codec marker is set in the length word and
// every field survives the round trip exactly. The per-tag table in
// codec_test.go covers every other message.
func TestFastFrameRoundTrip(t *testing.T) {
	sig := bytes.Repeat([]byte{0xab}, 71)
	h := types.HashBytes([]byte("block"))
	hot := []types.Message{
		testProposal(),
		&core.MsgVote{SC: &types.StoreCert{Hash: h, View: 4, Height: 7, Signer: 1, Sig: sig}},
		&core.MsgDecide{CC: &types.CommitCert{
			Hash: h, View: 4, Height: 7,
			Signers: []types.NodeID{0, 2, 4},
			Sigs:    []types.Signature{sig, sig, sig},
		}},
	}
	for _, msg := range hot {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 3, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		raw := buf.Bytes()
		if binary.BigEndian.Uint32(raw[:4])&binaryFrameFlag == 0 {
			t.Fatalf("%T: frame lacks the binary-codec marker", msg)
		}
		from, got, n, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if from != 3 || n != len(raw) {
			t.Fatalf("%T: from=%v n=%d want 3/%d", msg, from, n, len(raw))
		}
		// Force the decoded block's lazy hash before DeepEqual so both
		// sides carry identical cached state.
		if p, ok := got.(*core.MsgProposal); ok {
			orig := msg.(*core.MsgProposal)
			if p.Block.Hash() != orig.Block.Hash() {
				t.Fatalf("proposal block hash moved across the wire")
			}
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("%T round trip mismatch:\n sent %+v\n got  %+v", msg, msg, got)
		}
	}

	// Former gob-path messages take the same binary envelope now.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, &types.BlockRequest{Hash: h, From: 3}); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(buf.Bytes()[:4])&binaryFrameFlag == 0 {
		t.Fatal("block request frame lacks the binary-codec marker")
	}
}

// TestFastFrameGarbageIsSkippable: malformed fast bodies — unknown
// tag, truncated body, trailing garbage — are ErrBadFrame, and the
// stream survives them.
func TestFastFrameGarbageIsSkippable(t *testing.T) {
	mk := func(body []byte) []byte {
		out := make([]byte, 4+len(body))
		binary.BigEndian.PutUint32(out[:4], uint32(len(body))|binaryFrameFlag)
		copy(out[4:], body)
		return out
	}
	var okFrame bytes.Buffer
	if err := WriteFrame(&okFrame, 1, &core.MsgVote{SC: &types.StoreCert{
		Hash: types.HashBytes([]byte("x")), View: 1, Height: 1, Signer: 1, Sig: []byte{1},
	}}); err != nil {
		t.Fatal(err)
	}
	valid := okFrame.Bytes()

	cases := [][]byte{
		mk(nil),                                   // empty body
		mk([]byte{1, 2, 3}),                       // truncated header
		mk(append(make([]byte, 12), 0xEE)),        // unknown tag
		append([]byte{}, valid[:len(valid)-1]...), // truncated last byte — handled below
	}
	// Truncated-body case: shorten the length word to cut the sig.
	trunc := append([]byte{}, valid...)
	binary.BigEndian.PutUint32(trunc[:4], uint32(len(valid)-4-2)|binaryFrameFlag)
	cases[3] = trunc[:len(trunc)-2]

	for i, bad := range cases {
		stream := append(append([]byte{}, bad...), valid...)
		r := bytes.NewReader(stream)
		_, _, _, err := ReadFrame(r)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: err = %v, want ErrBadFrame", i, err)
		}
		if _, msg, _, err := ReadFrame(r); err != nil {
			t.Fatalf("case %d: stream did not survive: %v", i, err)
		} else if _, ok := msg.(*core.MsgVote); !ok {
			t.Fatalf("case %d: next frame decoded as %T", i, msg)
		}
	}
}

// TestFastFrameEncodeAllocs pins the zero-alloc property the codec
// exists for: once the buffer pool is warm, encoding a hot frame
// performs no per-frame heap allocation.
func TestFastFrameEncodeAllocs(t *testing.T) {
	msg := testProposal()
	f := &frame{From: 2, Msg: msg}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		bp, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		releaseFrameBuf(bp)
	}
	allocs := testing.AllocsPerRun(200, func() {
		bp, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		releaseFrameBuf(bp)
	})
	if allocs > 1 {
		t.Fatalf("fast encode allocates %.1f objects per frame, want ≤1", allocs)
	}
}
