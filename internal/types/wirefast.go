package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// This file is the binary codec: the one byte format for every live
// wire frame and every on-disk record (WAL commit records, snapshots,
// sealed markers). It is hand-rolled rather than reflective so the hot
// path pays no per-frame type-descriptor cost and the byte layout is an
// explicit, versioned contract instead of whatever a reflection library
// emits. Encoders append into a pooled buffer the caller returns after
// the write; decoders read out of the receive buffer with bounds
// checks, copying only the variable-length fields the value keeps.
//
// Layouts are little-endian fixed-width integers and u32
// length-prefixed byte strings. Optional pointers carry a presence
// byte so structurally invalid messages round-trip to the validation
// layer instead of panicking an encoder. Every list count is checked
// against both a semantic bound and the bytes actually left, so a
// forged count cannot force a large allocation. The codec changes no
// signing payload and no WireSize accounting — it is an encoding only,
// invisible to the simulator and the golden hashes.
//
// The tag table and record kinds are documented in DESIGN.md ("Wire
// and record format"); tags are never reused or renumbered.

// ErrUnsupportedRecord tags persisted state written in a format this
// build does not read — in particular the gob records and snapshots of
// builds that predate the binary codec. It is never a silent skip: the
// caller must refuse to open the state.
var ErrUnsupportedRecord = errors.New("unsupported record format")

// maxPooledWireBuf bounds the buffers the pool retains; anything
// bigger (a snapshot-sized outlier) is left for the collector.
const maxPooledWireBuf = 1 << 20

var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetWireBuf returns a pooled, length-zero byte buffer. Pass it back
// to PutWireBuf when the encoded bytes have been written out.
func GetWireBuf() *[]byte {
	bp := wireBufPool.Get().(*[]byte)
	if cap(*bp) == 0 {
		*bp = make([]byte, 0, 4096)
	}
	*bp = (*bp)[:0]
	return bp
}

// PutWireBuf returns a buffer to the pool. Oversized buffers are
// dropped so one huge frame does not pin its capacity forever.
func PutWireBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledWireBuf {
		return
	}
	wireBufPool.Put(bp)
}

// --- append-style encoders --------------------------------------------

// WireAppendU8 appends one byte.
func WireAppendU8(b []byte, v byte) []byte { return append(b, v) }

// WireAppendBool appends a boolean as one byte (0 or 1).
func WireAppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// WireAppendU32 appends a fixed-width little-endian uint32.
func WireAppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// WireAppendU64 appends a fixed-width little-endian uint64.
func WireAppendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// WireAppendBytes appends a u32 length prefix and the bytes.
func WireAppendBytes(b []byte, p []byte) []byte {
	b = WireAppendU32(b, uint32(len(p)))
	return append(b, p...)
}

// WireAppendString appends a u32 length prefix and the string bytes.
func WireAppendString(b []byte, s string) []byte {
	b = WireAppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// WireAppendHash appends the 32 raw digest bytes.
func WireAppendHash(b []byte, h Hash) []byte { return append(b, h[:]...) }

// --- bounds-checked decoder -------------------------------------------

// WireReader decodes the binary layout. All reads are bounds checked;
// the first failure latches Err and every later read returns zero
// values, so decoders can run straight-line and check the error once at
// the end. Byte strings are copied out — the backing receive buffer is
// pooled and reused after decode.
type WireReader struct {
	buf []byte
	bad bool
}

// NewWireReader wraps buf for decoding. The reader borrows buf; it
// never writes to it and never retains it past the reads.
func NewWireReader(buf []byte) *WireReader { return &WireReader{buf: buf} }

// Err reports whether any read ran past the buffer or a length bound.
func (r *WireReader) Err() bool { return r.bad }

// Len returns the unread byte count.
func (r *WireReader) Len() int { return len(r.buf) }

func (r *WireReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.buf) {
		r.bad = true
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean byte; anything but 0 or 1 is malformed, so
// every value has exactly one encoding.
func (r *WireReader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

// U32 reads a little-endian uint32.
func (r *WireReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *WireReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// NodeID reads a node identity.
func (r *WireReader) NodeID() NodeID { return NodeID(int32(r.U32())) }

// Hash reads 32 raw digest bytes.
func (r *WireReader) Hash() Hash {
	var h Hash
	copy(h[:], r.take(32))
	return h
}

// Bytes reads a u32-length-prefixed byte string of at most max bytes,
// copying it out of the borrowed buffer. An empty string decodes as
// nil, so every value has exactly one encoding.
func (r *WireReader) Bytes(max int) []byte {
	n := int(r.U32())
	if n > max {
		r.bad = true
		return nil
	}
	b := r.take(n)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32-length-prefixed string of at most max bytes.
func (r *WireReader) String(max int) string {
	n := int(r.U32())
	if n > max {
		r.bad = true
		return ""
	}
	return string(r.take(n))
}

// Count reads a u32 list count and checks it against max and against
// the bytes left: each element needs at least minElem bytes on the
// wire, so a forged count is refused before anything is allocated.
func (r *WireReader) Count(max, minElem int) int {
	n := int(r.U32())
	if r.bad || n > max || (n > 0 && r.Len()/minElem < n) {
		r.bad = true
		return 0
	}
	return n
}

// --- shared structure codecs ------------------------------------------

// Minimum encoded sizes, used by Count to bound list allocations.
const (
	wireTxMin    = 4 + 4 + 8 + 4
	wireTxKeyLen = 4 + 4
)

// AppendWireTransaction encodes one transaction.
func AppendWireTransaction(b []byte, tx *Transaction) []byte {
	b = WireAppendU32(b, uint32(tx.Client))
	b = WireAppendU32(b, tx.Seq)
	b = WireAppendU64(b, uint64(tx.Created))
	return WireAppendBytes(b, tx.Payload)
}

// ReadWireTransaction decodes one transaction in place.
func ReadWireTransaction(r *WireReader, tx *Transaction) {
	tx.Client = r.NodeID()
	tx.Seq = r.U32()
	tx.Created = Time(r.U64())
	tx.Payload = r.Bytes(MaxWireTxPayload)
}

// appendWireTxs encodes a counted transaction list.
func appendWireTxs(b []byte, txs []Transaction) []byte {
	b = WireAppendU32(b, uint32(len(txs)))
	for i := range txs {
		b = AppendWireTransaction(b, &txs[i])
	}
	return b
}

// readWireTxs decodes a counted transaction list (nil when empty).
func readWireTxs(r *WireReader) []Transaction {
	n := r.Count(MaxWireTxs, wireTxMin)
	if n == 0 {
		return nil
	}
	txs := make([]Transaction, n)
	for i := range txs {
		ReadWireTransaction(r, &txs[i])
	}
	return txs
}

// appendWireTxKeys encodes a counted transaction-key list.
func appendWireTxKeys(b []byte, keys []TxKey) []byte {
	b = WireAppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = WireAppendU32(b, uint32(k.Client))
		b = WireAppendU32(b, k.Seq)
	}
	return b
}

// readWireTxKeys decodes a counted transaction-key list (nil when
// empty).
func readWireTxKeys(r *WireReader) []TxKey {
	n := r.Count(MaxWireTxKeys, wireTxKeyLen)
	if n == 0 {
		return nil
	}
	keys := make([]TxKey, n)
	for i := range keys {
		keys[i] = TxKey{Client: r.NodeID(), Seq: r.U32()}
	}
	return keys
}

func appendWireNodeIDs(b []byte, ids []NodeID) []byte {
	b = WireAppendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = WireAppendU32(b, uint32(id))
	}
	return b
}

func readWireNodeIDs(r *WireReader) []NodeID {
	n := r.Count(MaxWireSigners, 4)
	if n == 0 {
		return nil
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = r.NodeID()
	}
	return ids
}

// AppendWireBlock encodes a block (nil-safe via a presence byte).
func AppendWireBlock(b []byte, blk *Block) []byte {
	if blk == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, blk.Parent)
	b = WireAppendU64(b, uint64(blk.View))
	b = WireAppendU64(b, uint64(blk.Height))
	b = WireAppendU32(b, uint32(blk.Proposer))
	b = WireAppendU64(b, uint64(blk.Proposed))
	b = WireAppendBytes(b, blk.Op)
	return appendWireTxs(b, blk.Txs)
}

// ReadWireBlock decodes a block, or nil when absent.
func ReadWireBlock(r *WireReader) *Block {
	if !r.Bool() {
		return nil
	}
	blk := &Block{}
	blk.Parent = r.Hash()
	blk.View = View(r.U64())
	blk.Height = Height(r.U64())
	blk.Proposer = r.NodeID()
	blk.Proposed = Time(r.U64())
	blk.Op = r.Bytes(MaxWireOp)
	blk.Txs = readWireTxs(r)
	return blk
}

// AppendWireBlockCert encodes a block certificate (nil-safe).
func AppendWireBlockCert(b []byte, c *BlockCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireBlockCert decodes a block certificate, or nil when absent.
func ReadWireBlockCert(r *WireReader) *BlockCert {
	if !r.Bool() {
		return nil
	}
	return &BlockCert{
		Hash:   r.Hash(),
		View:   View(r.U64()),
		Height: Height(r.U64()),
		Signer: r.NodeID(),
		Sig:    r.Bytes(MaxWireSig),
	}
}

// AppendWireStoreCert encodes a store certificate (nil-safe).
func AppendWireStoreCert(b []byte, c *StoreCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireStoreCert decodes a store certificate, or nil when absent.
func ReadWireStoreCert(r *WireReader) *StoreCert {
	if !r.Bool() {
		return nil
	}
	return &StoreCert{
		Hash:   r.Hash(),
		View:   View(r.U64()),
		Height: Height(r.U64()),
		Signer: r.NodeID(),
		Sig:    r.Bytes(MaxWireSig),
	}
}

// AppendWireCommitCert encodes a commitment certificate (nil-safe).
func AppendWireCommitCert(b []byte, c *CommitCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.Hash)
	b = WireAppendU64(b, uint64(c.View))
	b = WireAppendU64(b, uint64(c.Height))
	b = appendWireNodeIDs(b, c.Signers)
	b = WireAppendU32(b, uint32(len(c.Sigs)))
	for _, sig := range c.Sigs {
		b = WireAppendBytes(b, sig)
	}
	return b
}

// ReadWireCommitCert decodes a commitment certificate, or nil when
// absent.
func ReadWireCommitCert(r *WireReader) *CommitCert {
	if !r.Bool() {
		return nil
	}
	c := &CommitCert{
		Hash:    r.Hash(),
		View:    View(r.U64()),
		Height:  Height(r.U64()),
		Signers: readWireNodeIDs(r),
	}
	if n := r.Count(MaxWireSigners, 4); n > 0 {
		c.Sigs = make([]Signature, n)
		for i := range c.Sigs {
			c.Sigs[i] = r.Bytes(MaxWireSig)
		}
	}
	return c
}

// AppendWireViewCert encodes a view certificate (nil-safe).
func AppendWireViewCert(b []byte, c *ViewCert) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.PrepHash)
	b = WireAppendU64(b, uint64(c.PrepView))
	b = WireAppendU64(b, uint64(c.PrepHeight))
	b = WireAppendU64(b, uint64(c.CurView))
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireViewCert decodes a view certificate, or nil when absent.
func ReadWireViewCert(r *WireReader) *ViewCert {
	if !r.Bool() {
		return nil
	}
	return &ViewCert{
		PrepHash:   r.Hash(),
		PrepView:   View(r.U64()),
		PrepHeight: Height(r.U64()),
		CurView:    View(r.U64()),
		Signer:     r.NodeID(),
		Sig:        r.Bytes(MaxWireSig),
	}
}

// AppendWireRecoveryReq encodes a recovery request (nil-safe).
func AppendWireRecoveryReq(b []byte, c *RecoveryReq) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendU64(b, c.Nonce)
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireRecoveryReq decodes a recovery request, or nil when absent.
func ReadWireRecoveryReq(r *WireReader) *RecoveryReq {
	if !r.Bool() {
		return nil
	}
	return &RecoveryReq{Nonce: r.U64(), Signer: r.NodeID(), Sig: r.Bytes(MaxWireSig)}
}

// AppendWireRecoveryRpy encodes a recovery reply attestation
// (nil-safe).
func AppendWireRecoveryRpy(b []byte, c *RecoveryRpy) []byte {
	if c == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendHash(b, c.PrepHash)
	b = WireAppendU64(b, uint64(c.PrepView))
	b = WireAppendU64(b, uint64(c.PrepHeight))
	b = WireAppendU64(b, uint64(c.CurView))
	b = WireAppendU32(b, uint32(c.Target))
	b = WireAppendU64(b, c.Nonce)
	b = WireAppendU32(b, uint32(c.Signer))
	return WireAppendBytes(b, c.Sig)
}

// ReadWireRecoveryRpy decodes a recovery reply attestation, or nil
// when absent.
func ReadWireRecoveryRpy(r *WireReader) *RecoveryRpy {
	if !r.Bool() {
		return nil
	}
	return &RecoveryRpy{
		PrepHash:   r.Hash(),
		PrepView:   View(r.U64()),
		PrepHeight: Height(r.U64()),
		CurView:    View(r.U64()),
		Target:     r.NodeID(),
		Nonce:      r.U64(),
		Signer:     r.NodeID(),
		Sig:        r.Bytes(MaxWireSig),
	}
}

// appendWireReconfig encodes a reconfig command (nil-safe).
func appendWireReconfig(b []byte, rc *Reconfig) []byte {
	if rc == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendU8(b, byte(rc.Op))
	b = WireAppendU32(b, uint32(rc.Node))
	b = WireAppendBytes(b, rc.Key)
	b = WireAppendString(b, rc.Addr)
	b = WireAppendU32(b, uint32(rc.Signer))
	return WireAppendBytes(b, rc.Sig)
}

// readWireReconfig decodes a reconfig command, or nil when absent.
func readWireReconfig(r *WireReader) *Reconfig {
	if !r.Bool() {
		return nil
	}
	return &Reconfig{
		Op:     ReconfigOp(r.U8()),
		Node:   r.NodeID(),
		Key:    r.Bytes(maxReconfigField),
		Addr:   r.String(maxReconfigField),
		Signer: r.NodeID(),
		Sig:    r.Bytes(MaxWireSig),
	}
}

// AppendWireMembership encodes an epoch membership (nil-safe). Map
// entries are written in ascending id order, so equal memberships
// encode to equal bytes.
func AppendWireMembership(b []byte, m *Membership) []byte {
	if m == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendU64(b, uint64(m.Epoch))
	b = WireAppendU64(b, uint64(m.ActivateAt))
	b = appendWireNodeIDs(b, m.Members)
	b = WireAppendU32(b, uint32(len(m.Keys)))
	for _, id := range sortedIDs(m.Keys) {
		b = WireAppendU32(b, uint32(id))
		b = WireAppendBytes(b, m.Keys[id])
	}
	b = WireAppendU32(b, uint32(len(m.Addrs)))
	for _, id := range sortedIDs(m.Addrs) {
		b = WireAppendU32(b, uint32(id))
		b = WireAppendString(b, m.Addrs[id])
	}
	return b
}

func sortedIDs[V any](m map[NodeID]V) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReadWireMembership decodes an epoch membership, or nil when absent.
// The maps are always allocated (as Clone does) and must list their
// ids in strictly ascending order, so each membership has exactly one
// encoding.
func ReadWireMembership(r *WireReader) *Membership {
	if !r.Bool() {
		return nil
	}
	m := &Membership{
		Epoch:      Epoch(r.U64()),
		ActivateAt: Height(r.U64()),
		Members:    readWireNodeIDs(r),
	}
	n := r.Count(MaxWireSigners, 4+4)
	m.Keys = make(map[NodeID][]byte, n)
	last := NodeID(-1 << 31)
	for i := 0; i < n; i++ {
		id := r.NodeID()
		if i > 0 && id <= last {
			r.bad = true
		}
		last = id
		m.Keys[id] = r.Bytes(maxReconfigField)
	}
	n = r.Count(MaxWireSigners, 4+4)
	m.Addrs = make(map[NodeID]string, n)
	for i := 0; i < n; i++ {
		id := r.NodeID()
		if i > 0 && id <= last {
			r.bad = true
		}
		last = id
		m.Addrs[id] = r.String(maxReconfigField)
	}
	return m
}

// AppendWireEpochTransition encodes one epoch-transition proof
// (nil-safe).
func AppendWireEpochTransition(b []byte, t *EpochTransition) []byte {
	if t == nil {
		return WireAppendU8(b, 0)
	}
	b = WireAppendU8(b, 1)
	b = WireAppendU64(b, uint64(t.Epoch))
	b = appendWireReconfig(b, t.Rc)
	b = WireAppendU32(b, uint32(len(t.Blocks)))
	for _, blk := range t.Blocks {
		b = AppendWireBlock(b, blk)
	}
	return AppendWireCommitCert(b, t.CC)
}

// maxWireLineageBlocks bounds the block run of one transition proof.
const maxWireLineageBlocks = 1 << 16

// ReadWireEpochTransition decodes one epoch-transition proof, or nil
// when absent.
func ReadWireEpochTransition(r *WireReader) *EpochTransition {
	if !r.Bool() {
		return nil
	}
	t := &EpochTransition{Epoch: Epoch(r.U64()), Rc: readWireReconfig(r)}
	if n := r.Count(maxWireLineageBlocks, 1); n > 0 {
		t.Blocks = make([]*Block, n)
		for i := range t.Blocks {
			t.Blocks[i] = ReadWireBlock(r)
		}
	}
	t.CC = ReadWireCommitCert(r)
	return t
}

// --- wire message registry --------------------------------------------

// WireMessage is implemented by every message the live transport
// carries. WireTag identifies the concrete type on the wire (one byte,
// unique across all registered messages, never reused or renumbered);
// AppendWire appends the body. A registered decoder (RegisterWire)
// must reverse it exactly.
type WireMessage interface {
	Message
	WireTag() byte
	AppendWire(b []byte) []byte
}

// WireDecoderFunc decodes one message body of a registered tag.
// Decoders read straight-line; the caller checks r.Err() and that the
// body was consumed exactly.
type WireDecoderFunc func(r *WireReader) Message

var wireDecoders [256]WireDecoderFunc

// RegisterWire installs the decoder for one message tag. Call from
// init functions only — the table is read without locks on every
// received frame.
func RegisterWire(tag byte, dec WireDecoderFunc) {
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("types: duplicate wire tag 0x%02x", tag))
	}
	wireDecoders[tag] = dec
}

// WireDecoder returns the decoder registered for tag, or nil.
func WireDecoder(tag byte) WireDecoderFunc { return wireDecoders[tag] }

// Wire tags of the shared messages. Tags are part of the wire format:
// never reuse or renumber one. The Achilles core owns 0x01–0x0f, this
// package 0x10–0x1f, the transport 0x20–0x2f; tests use 0xf0–0xff.
const (
	wireTagClientRequest    byte = 0x10
	wireTagClientReply      byte = 0x11
	wireTagClientRetry      byte = 0x12
	wireTagBlockRequest     byte = 0x13
	wireTagBlockResponse    byte = 0x14
	wireTagBlockUnavailable byte = 0x15
	wireTagSnapshotRequest  byte = 0x16
	wireTagSnapshotChunk    byte = 0x17
)

// WireTag implements WireMessage.
func (*ClientRequest) WireTag() byte { return wireTagClientRequest }

// AppendWire implements WireMessage.
func (m *ClientRequest) AppendWire(b []byte) []byte { return appendWireTxs(b, m.Txs) }

// WireTag implements WireMessage.
func (*ClientReply) WireTag() byte { return wireTagClientReply }

// AppendWire implements WireMessage.
func (m *ClientReply) AppendWire(b []byte) []byte {
	b = WireAppendHash(b, m.Block)
	b = WireAppendU64(b, uint64(m.View))
	b = WireAppendU64(b, uint64(m.Height))
	b = appendWireTxKeys(b, m.TxKeys)
	b = WireAppendBool(b, m.Certified)
	return WireAppendU32(b, uint32(m.From))
}

// WireTag implements WireMessage.
func (*ClientRetry) WireTag() byte { return wireTagClientRetry }

// AppendWire implements WireMessage.
func (m *ClientRetry) AppendWire(b []byte) []byte {
	b = appendWireTxKeys(b, m.TxKeys)
	b = WireAppendU64(b, uint64(m.RetryAfter))
	b = WireAppendU8(b, byte(m.Reason))
	return WireAppendU32(b, uint32(m.From))
}

// WireTag implements WireMessage.
func (*BlockRequest) WireTag() byte { return wireTagBlockRequest }

// AppendWire implements WireMessage.
func (m *BlockRequest) AppendWire(b []byte) []byte {
	b = WireAppendHash(b, m.Hash)
	return WireAppendU32(b, uint32(m.From))
}

// WireTag implements WireMessage.
func (*BlockResponse) WireTag() byte { return wireTagBlockResponse }

// AppendWire implements WireMessage.
func (m *BlockResponse) AppendWire(b []byte) []byte { return AppendWireBlock(b, m.Block) }

// WireTag implements WireMessage.
func (*BlockUnavailable) WireTag() byte { return wireTagBlockUnavailable }

// AppendWire implements WireMessage.
func (m *BlockUnavailable) AppendWire(b []byte) []byte {
	b = WireAppendHash(b, m.Hash)
	b = WireAppendBool(b, m.PastHorizon)
	b = WireAppendU64(b, uint64(m.Height))
	return WireAppendU32(b, uint32(m.From))
}

// WireTag implements WireMessage.
func (*SnapshotRequest) WireTag() byte { return wireTagSnapshotRequest }

// AppendWire implements WireMessage.
func (m *SnapshotRequest) AppendWire(b []byte) []byte { return WireAppendU32(b, uint32(m.From)) }

// WireTag implements WireMessage.
func (*SnapshotChunk) WireTag() byte { return wireTagSnapshotChunk }

// AppendWire implements WireMessage.
func (m *SnapshotChunk) AppendWire(b []byte) []byte {
	b = WireAppendHash(b, m.Hash)
	b = WireAppendU64(b, uint64(m.Height))
	b = WireAppendU32(b, m.Total)
	b = WireAppendU32(b, m.Index)
	b = WireAppendBytes(b, m.Data)
	return WireAppendU32(b, uint32(m.From))
}

func init() {
	RegisterWire(wireTagClientRequest, func(r *WireReader) Message {
		return &ClientRequest{Txs: readWireTxs(r)}
	})
	RegisterWire(wireTagClientReply, func(r *WireReader) Message {
		return &ClientReply{
			Block:     r.Hash(),
			View:      View(r.U64()),
			Height:    Height(r.U64()),
			TxKeys:    readWireTxKeys(r),
			Certified: r.Bool(),
			From:      r.NodeID(),
		}
	})
	RegisterWire(wireTagClientRetry, func(r *WireReader) Message {
		return &ClientRetry{
			TxKeys:     readWireTxKeys(r),
			RetryAfter: Time(r.U64()),
			Reason:     RetryReason(r.U8()),
			From:       r.NodeID(),
		}
	})
	RegisterWire(wireTagBlockRequest, func(r *WireReader) Message {
		return &BlockRequest{Hash: r.Hash(), From: r.NodeID()}
	})
	RegisterWire(wireTagBlockResponse, func(r *WireReader) Message {
		return &BlockResponse{Block: ReadWireBlock(r)}
	})
	RegisterWire(wireTagBlockUnavailable, func(r *WireReader) Message {
		return &BlockUnavailable{Hash: r.Hash(), PastHorizon: r.Bool(), Height: Height(r.U64()), From: r.NodeID()}
	})
	RegisterWire(wireTagSnapshotRequest, func(r *WireReader) Message {
		return &SnapshotRequest{From: r.NodeID()}
	})
	RegisterWire(wireTagSnapshotChunk, func(r *WireReader) Message {
		return &SnapshotChunk{
			Hash:   r.Hash(),
			Height: Height(r.U64()),
			Total:  r.U32(),
			Index:  r.U32(),
			Data:   r.Bytes(MaxWireSnapChunk),
			From:   r.NodeID(),
		}
	})
}
