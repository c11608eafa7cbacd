package transport

import (
	"bytes"
	"testing"

	"achilles/internal/core"
	"achilles/internal/types"
)

// benchTxs returns n client transactions with payload-byte bodies.
func benchTxs(n, payload int) []types.Transaction {
	txs := make([]types.Transaction, n)
	for i := range txs {
		txs[i] = types.Transaction{Client: types.ClientIDBase + types.NodeID(i%64), Seq: uint32(i + 1),
			Payload: bytes.Repeat([]byte{byte(i)}, payload), Created: types.Time(i)}
	}
	return txs
}

// BenchmarkFrameRoundTrip measures WriteFrame + ReadFrame (encode,
// decode and ValidateWire) per frame kind on the client and consensus
// paths: one-transaction client batches of 64 B and 1 KiB, a certified
// reply, a fast-path NEW-VIEW, and a full 400-transaction proposal.
func BenchmarkFrameRoundTrip(b *testing.B) {
	sig := bytes.Repeat([]byte{0xab}, 71)
	h := types.HashBytes([]byte("bench"))
	blk := &types.Block{Txs: benchTxs(400, 1024), Op: h[:], Parent: h, View: 9, Height: 77, Proposer: 1, Proposed: 5}
	keys := make([]types.TxKey, 8)
	for i := range keys {
		keys[i] = types.TxKey{Client: types.ClientIDBase + 3, Seq: uint32(i)}
	}
	cases := []struct {
		name string
		msg  types.Message
	}{
		{"client-request-64B", &types.ClientRequest{Txs: benchTxs(1, 64)}},
		{"client-request-1KiB", &types.ClientRequest{Txs: benchTxs(1, 1024)}},
		{"client-reply", &types.ClientReply{Block: h, View: 9, Height: 77, TxKeys: keys, Certified: true, From: 1}},
		{"new-view", &core.MsgNewView{
			VC: &types.ViewCert{PrepHash: h, PrepView: 8, PrepHeight: 76, CurView: 9, Signer: 2, Sig: sig},
			CC: &types.CommitCert{Hash: h, View: 8, Height: 76, Signers: []types.NodeID{0, 1}, Sigs: []types.Signature{sig, sig}},
		}},
		{"proposal-400tx", &core.MsgProposal{Block: blk, BC: &types.BlockCert{Hash: blk.Hash(), View: 9, Height: 77, Signer: 1, Sig: sig}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteFrame(&buf, 1, c.msg); err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := ReadFrame(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
