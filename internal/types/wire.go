package types

import (
	"errors"
	"fmt"
)

// This file is the structural validation layer for everything that
// crosses a network boundary. The binary codec (wirefast.go) guarantees
// only that bytes parsed into the right shapes within its length
// bounds; it says nothing about whether a peer
// sent a certificate with a megabyte "signature", a commit certificate
// whose signer and signature lists disagree in length, or a block
// claiming 2^40 transactions. Every such field is attacker-controlled
// on the live transport, so each wire message validates itself right
// after decode — before any protocol code, allocation-amplifying copy,
// or signature check touches it.

// ErrWire tags all structural wire-validation failures; use
// errors.Is(err, ErrWire) to distinguish malformed input from I/O
// errors.
var ErrWire = errors.New("invalid wire message")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// Bounds on attacker-controlled variable-length wire fields. They are
// deliberately generous — an order of magnitude above anything a
// correct node produces under the paper's workloads — so they only
// ever reject garbage, never legitimate traffic.
const (
	// MaxWireSig bounds a single signature (ECDSA P-256 ASN.1 is ~71 B;
	// the simulation scheme is smaller).
	MaxWireSig = 256
	// MaxWireSigners bounds signer/id lists in quorum certificates.
	MaxWireSigners = 1024
	// MaxWireTxs bounds the transactions in one block or client batch.
	MaxWireTxs = 1 << 16
	// MaxWireTxPayload bounds one transaction's opaque payload.
	MaxWireTxPayload = 1 << 20
	// MaxWireOp bounds a block's execution-result bytes.
	MaxWireOp = 1 << 20
	// MaxWireTxKeys bounds the transaction keys in one client reply.
	MaxWireTxKeys = 1 << 16
	// MaxWireSnapChunk bounds one snapshot-transfer chunk's data.
	MaxWireSnapChunk = 1 << 20
	// MaxWireSnapChunks bounds the chunk count of one snapshot
	// transfer (together with MaxWireSnapChunk: 1 GiB of snapshot).
	MaxWireSnapChunks = 1 << 10
)

// TraceContext is the compact causal-tracing context that rides every
// live wire frame next to the message payload: a trace identifier
// minted by whichever process starts a traced unit of work (a leader
// proposing a height, a load generator submitting a batch) plus the
// sampling decision. It is unauthenticated observability metadata —
// consensus logic never reads it, it is never signed, and a Byzantine
// peer forging it can at worst pollute the forger's neighbours' span
// rings — so it carries no ValidateWire of its own beyond being
// fixed-size. The zero TraceContext means "untraced".
type TraceContext struct {
	// ID identifies the trace. IDs embed the minting process so they
	// stay distinct across replicas without coordination.
	ID uint64
	// Sampled is the head-based sampling decision: only sampled traces
	// record spans anywhere downstream.
	Sampled bool
}

// Pack encodes the context into one word (bit 0 = sampled) so a
// transport can hold its current outbound context in a single atomic.
func (c TraceContext) Pack() uint64 {
	v := c.ID << 1
	if c.Sampled {
		v |= 1
	}
	return v
}

// UnpackTraceContext reverses Pack.
func UnpackTraceContext(v uint64) TraceContext {
	return TraceContext{ID: v >> 1, Sampled: v&1 == 1}
}

// WireValidator is implemented by messages (and their nested
// certificates) that can check their own structural integrity. The
// live transport calls ValidateWire on every decoded frame whose
// message implements it and drops the frame on error; the simulator's
// in-memory channels skip it (no untrusted encoding step exists
// there).
type WireValidator interface {
	// ValidateWire reports whether the value is structurally sound:
	// required sub-objects present, lengths within bounds, list lengths
	// consistent. It must not verify signatures — that stays with the
	// trusted components — and must be side-effect free.
	ValidateWire() error
}

func checkSig(what string, sig Signature) error {
	if len(sig) == 0 {
		return wireErr("%s: empty signature", what)
	}
	if len(sig) > MaxWireSig {
		return wireErr("%s: signature of %d bytes exceeds %d", what, len(sig), MaxWireSig)
	}
	return nil
}

func checkSigner(what string, id NodeID) error {
	if id < 0 || id > 1<<20 {
		return wireErr("%s: implausible signer id %d", what, id)
	}
	return nil
}

// ValidateWire implements WireValidator.
func (c *BlockCert) ValidateWire() error {
	if c == nil {
		return wireErr("block cert: nil")
	}
	if err := checkSigner("block cert", c.Signer); err != nil {
		return err
	}
	return checkSig("block cert", c.Sig)
}

// ValidateWire implements WireValidator.
func (c *StoreCert) ValidateWire() error {
	if c == nil {
		return wireErr("store cert: nil")
	}
	if err := checkSigner("store cert", c.Signer); err != nil {
		return err
	}
	return checkSig("store cert", c.Sig)
}

// ValidateWire implements WireValidator.
func (c *CommitCert) ValidateWire() error {
	if c == nil {
		return wireErr("commit cert: nil")
	}
	if len(c.Signers) == 0 || len(c.Signers) > MaxWireSigners {
		return wireErr("commit cert: %d signers", len(c.Signers))
	}
	if len(c.Sigs) != len(c.Signers) {
		return wireErr("commit cert: %d signers but %d signatures", len(c.Signers), len(c.Sigs))
	}
	for i, id := range c.Signers {
		if err := checkSigner("commit cert", id); err != nil {
			return err
		}
		if err := checkSig("commit cert", c.Sigs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ValidateWire implements WireValidator.
func (c *AccCert) ValidateWire() error {
	if c == nil {
		return wireErr("acc cert: nil")
	}
	if len(c.IDs) == 0 || len(c.IDs) > MaxWireSigners {
		return wireErr("acc cert: %d ids", len(c.IDs))
	}
	for _, id := range c.IDs {
		if err := checkSigner("acc cert", id); err != nil {
			return err
		}
	}
	if err := checkSigner("acc cert", c.Signer); err != nil {
		return err
	}
	return checkSig("acc cert", c.Sig)
}

// ValidateWire implements WireValidator.
func (c *ViewCert) ValidateWire() error {
	if c == nil {
		return wireErr("view cert: nil")
	}
	if c.PrepView > c.CurView {
		return wireErr("view cert: prepared view %d above current view %d", c.PrepView, c.CurView)
	}
	if err := checkSigner("view cert", c.Signer); err != nil {
		return err
	}
	return checkSig("view cert", c.Sig)
}

// ValidateWire implements WireValidator.
func (c *RecoveryReq) ValidateWire() error {
	if c == nil {
		return wireErr("recovery req: nil")
	}
	if err := checkSigner("recovery req", c.Signer); err != nil {
		return err
	}
	return checkSig("recovery req", c.Sig)
}

// ValidateWire implements WireValidator.
func (c *RecoveryRpy) ValidateWire() error {
	if c == nil {
		return wireErr("recovery rpy: nil")
	}
	if c.PrepView > c.CurView {
		return wireErr("recovery rpy: prepared view %d above current view %d", c.PrepView, c.CurView)
	}
	if err := checkSigner("recovery rpy", c.Signer); err != nil {
		return err
	}
	if err := checkSigner("recovery rpy target", c.Target); err != nil {
		return err
	}
	return checkSig("recovery rpy", c.Sig)
}

func checkTxs(what string, txs []Transaction) error {
	if len(txs) > MaxWireTxs {
		return wireErr("%s: %d transactions exceed %d", what, len(txs), MaxWireTxs)
	}
	for i := range txs {
		if len(txs[i].Payload) > MaxWireTxPayload {
			return wireErr("%s: tx %d payload of %d bytes exceeds %d",
				what, i, len(txs[i].Payload), MaxWireTxPayload)
		}
	}
	return nil
}

// ValidateWire implements WireValidator.
func (b *Block) ValidateWire() error {
	if b == nil {
		return wireErr("block: nil")
	}
	if len(b.Op) > MaxWireOp {
		return wireErr("block: op of %d bytes exceeds %d", len(b.Op), MaxWireOp)
	}
	if b.Proposer < -1 || b.Proposer > 1<<20 {
		return wireErr("block: implausible proposer %d", b.Proposer)
	}
	return checkTxs("block", b.Txs)
}

// ValidateWire implements WireValidator.
func (m *ClientRequest) ValidateWire() error {
	if m == nil {
		return wireErr("client request: nil")
	}
	if len(m.Txs) == 0 {
		return wireErr("client request: empty batch")
	}
	return checkTxs("client request", m.Txs)
}

// ValidateWire implements WireValidator.
func (m *ClientReply) ValidateWire() error {
	if m == nil {
		return wireErr("client reply: nil")
	}
	if len(m.TxKeys) > MaxWireTxKeys {
		return wireErr("client reply: %d tx keys exceed %d", len(m.TxKeys), MaxWireTxKeys)
	}
	return checkSigner("client reply", m.From)
}

// ValidateWire implements WireValidator.
func (m *ClientRetry) ValidateWire() error {
	if m == nil {
		return wireErr("client retry: nil")
	}
	if len(m.TxKeys) > MaxWireTxKeys {
		return wireErr("client retry: %d tx keys exceed %d", len(m.TxKeys), MaxWireTxKeys)
	}
	if m.Reason > RetryRateLimited {
		return wireErr("client retry: unknown reason %d", m.Reason)
	}
	return checkSigner("client retry", m.From)
}

// ValidateWire implements WireValidator.
func (m *BlockRequest) ValidateWire() error {
	if m == nil {
		return wireErr("block request: nil")
	}
	return checkSigner("block request", m.From)
}

// ValidateWire implements WireValidator.
func (m *BlockResponse) ValidateWire() error {
	if m == nil {
		return wireErr("block response: nil")
	}
	if m.Block == nil {
		return wireErr("block response: missing block")
	}
	return m.Block.ValidateWire()
}

// ValidateWire implements WireValidator.
func (m *BlockUnavailable) ValidateWire() error {
	if m == nil {
		return wireErr("block unavailable: nil")
	}
	if m.PastHorizon && m.Height == 0 {
		return wireErr("block unavailable: past horizon at height 0")
	}
	return checkSigner("block unavailable", m.From)
}

// ValidateWire implements WireValidator.
func (m *SnapshotRequest) ValidateWire() error {
	if m == nil {
		return wireErr("snapshot request: nil")
	}
	return checkSigner("snapshot request", m.From)
}

// ValidateWire implements WireValidator.
func (m *SnapshotChunk) ValidateWire() error {
	if m == nil {
		return wireErr("snapshot chunk: nil")
	}
	if m.Total == 0 || m.Total > MaxWireSnapChunks {
		return wireErr("snapshot chunk: %d chunks (max %d)", m.Total, MaxWireSnapChunks)
	}
	if m.Index >= m.Total {
		return wireErr("snapshot chunk: index %d of %d", m.Index, m.Total)
	}
	if len(m.Data) > MaxWireSnapChunk {
		return wireErr("snapshot chunk: %d data bytes (max %d)", len(m.Data), MaxWireSnapChunk)
	}
	if m.Height == 0 {
		return wireErr("snapshot chunk: height 0")
	}
	return checkSigner("snapshot chunk", m.From)
}
