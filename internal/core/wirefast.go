package core

import "achilles/internal/types"

// Binary codec hooks for the Achilles messages (see types/wirefast.go
// for the layout conventions, DESIGN.md §12 for the tag table). Tags
// are part of the wire format: never reuse or renumber one. This
// package owns tags 0x01–0x0f.
const (
	wireTagProposal    byte = 0x01
	wireTagVote        byte = 0x02
	wireTagDecide      byte = 0x03
	wireTagNewView     byte = 0x04
	wireTagRecoveryReq byte = 0x05
	wireTagRecoveryRpy byte = 0x06
)

// WireTag implements types.WireMessage.
func (*MsgProposal) WireTag() byte { return wireTagProposal }

// AppendWire implements types.WireMessage.
func (m *MsgProposal) AppendWire(b []byte) []byte {
	b = types.AppendWireBlock(b, m.Block)
	return types.AppendWireBlockCert(b, m.BC)
}

// WireTag implements types.WireMessage.
func (*MsgVote) WireTag() byte { return wireTagVote }

// AppendWire implements types.WireMessage.
func (m *MsgVote) AppendWire(b []byte) []byte {
	return types.AppendWireStoreCert(b, m.SC)
}

// WireTag implements types.WireMessage.
func (*MsgDecide) WireTag() byte { return wireTagDecide }

// AppendWire implements types.WireMessage.
func (m *MsgDecide) AppendWire(b []byte) []byte {
	return types.AppendWireCommitCert(b, m.CC)
}

// WireTag implements types.WireMessage.
func (*MsgNewView) WireTag() byte { return wireTagNewView }

// AppendWire implements types.WireMessage.
func (m *MsgNewView) AppendWire(b []byte) []byte {
	b = types.AppendWireViewCert(b, m.VC)
	return types.AppendWireCommitCert(b, m.CC)
}

// WireTag implements types.WireMessage.
func (*MsgRecoveryReq) WireTag() byte { return wireTagRecoveryReq }

// AppendWire implements types.WireMessage.
func (m *MsgRecoveryReq) AppendWire(b []byte) []byte {
	return types.AppendWireRecoveryReq(b, m.Req)
}

// WireTag implements types.WireMessage.
func (*MsgRecoveryRpy) WireTag() byte { return wireTagRecoveryRpy }

// AppendWire implements types.WireMessage.
func (m *MsgRecoveryRpy) AppendWire(b []byte) []byte {
	b = types.AppendWireRecoveryRpy(b, m.Rpy)
	b = types.AppendWireBlock(b, m.Block)
	b = types.AppendWireBlockCert(b, m.BC)
	return types.AppendWireCommitCert(b, m.CC)
}

func init() {
	types.RegisterWire(wireTagProposal, func(r *types.WireReader) types.Message {
		return &MsgProposal{Block: types.ReadWireBlock(r), BC: types.ReadWireBlockCert(r)}
	})
	types.RegisterWire(wireTagVote, func(r *types.WireReader) types.Message {
		return &MsgVote{SC: types.ReadWireStoreCert(r)}
	})
	types.RegisterWire(wireTagDecide, func(r *types.WireReader) types.Message {
		return &MsgDecide{CC: types.ReadWireCommitCert(r)}
	})
	types.RegisterWire(wireTagNewView, func(r *types.WireReader) types.Message {
		return &MsgNewView{VC: types.ReadWireViewCert(r), CC: types.ReadWireCommitCert(r)}
	})
	types.RegisterWire(wireTagRecoveryReq, func(r *types.WireReader) types.Message {
		return &MsgRecoveryReq{Req: types.ReadWireRecoveryReq(r)}
	})
	types.RegisterWire(wireTagRecoveryRpy, func(r *types.WireReader) types.Message {
		return &MsgRecoveryRpy{
			Rpy:   types.ReadWireRecoveryRpy(r),
			Block: types.ReadWireBlock(r),
			BC:    types.ReadWireBlockCert(r),
			CC:    types.ReadWireCommitCert(r),
		}
	})
}
