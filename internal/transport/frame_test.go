package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"achilles/internal/types"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := &frame{
		From: 7,
		Msg: &types.ClientRequest{Txs: []types.Transaction{
			{Client: types.ClientIDBase, Seq: 3, Payload: []byte("hello")},
		}},
	}
	if err := WriteFrame(&buf, in.From, in.Msg); err != nil {
		t.Fatal(err)
	}
	out, err := readFrameFromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.From != 7 {
		t.Fatalf("from = %v", out.From)
	}
	req, ok := out.Msg.(*types.ClientRequest)
	if !ok || len(req.Txs) != 1 || string(req.Txs[0].Payload) != "hello" {
		t.Fatalf("decoded message mangled: %#v", out.Msg)
	}
}

// readFrameFromBytes decodes a frame from raw bytes via an in-memory
// pipe, exercising the same path readLoop uses.
func readFrameFromBytes(raw []byte) (*frame, error) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write(raw)
	}()
	b.SetReadDeadline(time.Now().Add(time.Second))
	f, _, err := readFrameConn(b)
	return f, err
}

func TestFrameRejectsOversize(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff} // 4 GiB length prefix
	if _, err := readFrameFromBytes(raw); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, &Hello{From: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	a, b := net.Pipe()
	go func() {
		a.Write(raw)
		a.Close()
	}()
	defer b.Close()
	if _, _, err := readFrameConn(b); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestHelloMetadata(t *testing.T) {
	h := &Hello{}
	if h.Type() != "transport/hello" || h.Size() <= 0 {
		t.Fatal("bad hello metadata")
	}
}

func TestLocalPeers(t *testing.T) {
	peers := LocalPeers(3, 9000)
	if len(peers) != 3 || peers[2] != "127.0.0.1:9002" {
		t.Fatalf("peers = %v", peers)
	}
}

func TestBlockMessageRoundtrip(t *testing.T) {
	// Blocks carry unexported cache fields; the codec must still
	// roundtrip the visible state and the hash must recompute
	// identically.
	blk := &types.Block{
		Txs:      []types.Transaction{{Client: 1, Seq: 2, Payload: []byte("xyz")}},
		Op:       []byte{9},
		Parent:   types.HashBytes([]byte("p")),
		View:     4,
		Height:   2,
		Proposer: 1,
	}
	wantHash := blk.Hash()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, &types.BlockResponse{Block: blk}); err != nil {
		t.Fatal(err)
	}
	out, err := readFrameFromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := out.Msg.(*types.BlockResponse).Block
	if got.Hash() != wantHash {
		t.Fatal("block hash changed across the wire")
	}
}
