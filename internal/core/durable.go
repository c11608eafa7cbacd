package core

// This file wires the ledger's durable layer (internal/ledger/durable)
// into the replica: restoring committed state at boot, appending every
// commit to the WAL, and checkpointing snapshots. Two principles keep
// the wiring safe:
//
//   - The disk is untrusted (Sec. 3.1's adversary controls it). A boot
//     adopts only state justified by a commit certificate whose f+1
//     quorum verifies against the PKI ring; a snapshot or WAL suffix
//     whose certificates do not verify is discarded, never trusted.
//   - Safety never depends on the disk. The checker's consensus state
//     is restored exclusively by the recovery protocol (Algorithm 3);
//     the durable layer only saves the *ledger* a network replay. A
//     failed append degrades the node to in-memory operation, it does
//     not halt consensus.
//
// Rollback of the disk itself (an adversary restoring an older data
// directory) cannot violate safety for the same reason, but it is
// still detected: the enclave seals a durable marker naming the
// highest snapshotted height, and a boot whose disk restores less than
// the marker attests discards the local state entirely and rebuilds
// from the cluster — a rolled-back ledger must not even be offered to
// peers as block-sync material.

import (
	"errors"
	"fmt"
	"time"

	"achilles/internal/ledger"
	"achilles/internal/obs"
	"achilles/internal/tee"
	"achilles/internal/types"
)

// durableMarkerName is the sealed-store key of the durable marker.
const durableMarkerName = "achilles-durable-marker"

// durableMarker is the enclave-sealed attestation of local durable
// progress. Height is the highest height a snapshot has checkpointed;
// a boot restoring less from disk has been rolled back.
type durableMarker struct {
	Incarnation uint64
	WalSeq      uint64
	Height      types.Height
}

// durableMarkerKind is the sealed marker's record kind (the gob marker
// of pre-binary-codec builds had no kind byte). Layout:
// [kind][u64 Incarnation][u64 WalSeq][u64 Height].
const durableMarkerKind = byte(2)

func (m *durableMarker) encode() []byte {
	b := make([]byte, 0, 1+3*8)
	b = append(b, durableMarkerKind)
	b = types.WireAppendU64(b, m.Incarnation)
	b = types.WireAppendU64(b, m.WalSeq)
	return types.WireAppendU64(b, uint64(m.Height))
}

func decodeDurableMarker(blob []byte) (durableMarker, error) {
	var m durableMarker
	if len(blob) == 0 || blob[0] != durableMarkerKind {
		return m, fmt.Errorf("sealed durable marker: %w", types.ErrUnsupportedRecord)
	}
	r := types.NewWireReader(blob[1:])
	m.Incarnation, m.WalSeq, m.Height = r.U64(), r.U64(), types.Height(r.U64())
	if r.Err() || r.Len() != 0 {
		return m, fmt.Errorf("sealed durable marker: %w", types.ErrUnsupportedRecord)
	}
	return m, nil
}

// markerState classifies what the sealed store held at boot.
type markerState int

const (
	// markerNone: no marker, or none this enclave can authenticate.
	markerNone markerState = iota
	// markerOK: an authenticated marker that decoded.
	markerOK
	// markerUnreadable: an authenticated marker that failed to decode
	// — written by a build with another format, or by a bug. Its
	// attested height is unknown, so the boot must distrust local
	// state exactly as for a detected rollback; reading it as "no
	// marker" would switch rollback detection off.
	markerUnreadable
)

// unsealDurableMarker reads and authenticates the sealed durable
// marker. Replica-side durable state is off (nil Durable) → no marker.
// A marker sealed one epoch behind the enclave's current sealing key
// is still accepted through the one-epoch unseal grace: epoch
// activation reseals the marker under the new key, but a crash between
// AdvanceEpoch and the reseal must not erase the rollback evidence.
// The enclave's own sealed epoch marker failing to decode makes every
// epoch-bound blob untrustworthy, so it reads as markerUnreadable too.
func (r *Replica) unsealDurableMarker() (durableMarker, markerState) {
	var m durableMarker
	if r.cfg.Durable == nil {
		return m, markerNone
	}
	if err := r.enclave.EpochMarkerErr(); err != nil {
		r.env.Logf("durable restore: %v", err)
		return m, markerUnreadable
	}
	blob, err := r.enclave.UnsealE(durableMarkerName)
	if err != nil {
		var stale *tee.StaleEpochError
		if !errors.As(err, &stale) {
			return m, markerNone
		}
		if blob, err = r.enclave.UnsealPrev(durableMarkerName); err != nil {
			return m, markerNone
		}
	}
	if len(blob) == 0 {
		return m, markerNone
	}
	m, err = decodeDurableMarker(blob)
	if err != nil {
		r.env.Logf("durable restore: %v", err)
		return m, markerUnreadable
	}
	r.durHeight = max(r.durHeight, m.Height)
	return m, markerOK
}

// sealDurableMarker seals a fresh marker (new incarnation) attesting
// snapshotted progress up to height h. The attested height is monotone
// across calls — resealing under a new epoch key must never attest
// less progress than an earlier marker, or a disk rollback across a
// rotation would go undetected.
func (r *Replica) sealDurableMarker(h types.Height) {
	d := r.cfg.Durable
	if d == nil {
		return
	}
	h = max(h, r.durHeight)
	r.durHeight = h
	r.durIncarnation++
	m := durableMarker{Incarnation: r.durIncarnation, WalSeq: d.Log().LastSeq(), Height: h}
	r.enclave.Seal(durableMarkerName, m.encode())
}

// restoredBatch is one certificate-covered group of restored blocks:
// the blocks committed (transitively) by cc, in chain order, with the
// certified block last.
type restoredBatch struct {
	blocks []*types.Block
	cc     *types.CommitCert
}

// restoreDurable rebuilds the ledger and state machine from the data
// directory: newest intact snapshot first, then the chained WAL
// suffix. Restored commits do not re-fire the commit observer or
// client replies — they happened in a previous incarnation.
func (r *Replica) restoreDurable(marker durableMarker, state markerState) {
	d := r.cfg.Durable
	if d == nil {
		return
	}
	hasMarker := state == markerOK
	if hasMarker {
		r.durIncarnation = marker.Incarnation
	}
	rec := d.Recovered()

	// Plan before applying: walk the recovered state and keep only the
	// certificate-covered prefix. The snapshot's certificate must
	// verify or snapshot AND suffix are discarded (the suffix chains
	// from a tip this node then does not have); WAL records past the
	// last verifiable certificate are an uncovered tail and are
	// dropped — they may have committed, but this node cannot prove it.
	//
	// Certificates are judged under the membership in force when they
	// committed: the snapshot pins its epoch's membership (authenticated
	// against the enclave-sealed config hash), and the WAL suffix
	// re-scans committed reconfig commands batch by batch, advancing the
	// configuration exactly as the live path did — Δ ≥ 1 guarantees each
	// batch was certified entirely under the epoch active below it. The
	// plan walk mutates only configuration state (membership, rings,
	// enclave epoch), never the ledger or state machine, so a detected
	// disk rollback still discards the ledger plan wholesale.
	var (
		snap    *ledger.Snapshot
		batches []restoredBatch
	)
	commits := rec.Commits
	if s := rec.Snapshot; s != nil {
		ok := true
		if s.Member != nil && s.Member.Epoch > r.member.Epoch {
			if err := r.adoptRestoreMembership(s.Member, s.Pending); err != nil {
				r.env.Logf("durable restore: snapshot at height %d: %v; discarding local state", s.Height, err)
				ok = false
			}
		} else if s.Pending != nil && s.Pending.Epoch == r.member.Epoch+1 {
			r.pending = s.Pending.Clone()
			r.obsPending.Store(r.pending)
			d.SetEpochConfig(r.member.Epoch, r.member, r.pending)
		}
		if ok && !r.verifyRestoredCC(s.CC) {
			r.env.Logf("durable restore: snapshot at height %d has an unverifiable certificate; discarding local state", s.Height)
			ok = false
		}
		if ok {
			snap = s
		} else {
			commits = nil
		}
	}
	var buf []*types.Block
	for _, cr := range commits {
		buf = append(buf, cr.Block)
		if cr.CC == nil {
			continue
		}
		if !r.verifyRestoredCC(cr.CC) {
			r.env.Logf("durable restore: WAL certificate at height %d does not verify; dropping the suffix from there", cr.Block.Height)
			buf = nil
			break
		}
		batches = append(batches, restoredBatch{blocks: buf, cc: cr.CC})
		r.scanReconfigs(buf, cr.CC)
		r.maybeActivateEpoch(cr.Block.Height)
		buf = nil
	}

	adopted := types.Height(0)
	if snap != nil {
		adopted = snap.Height
	}
	if n := len(batches); n > 0 {
		bs := batches[n-1].blocks
		adopted = bs[len(bs)-1].Height
	}
	if state == markerUnreadable {
		// The enclave holds an authenticated marker it cannot read, so
		// how far the disk may have been rolled back is unknown: take
		// the rollback path without resealing (the next snapshot seals
		// a readable marker; until then every boot stays conservative).
		r.m.durableRollbacks.Inc()
		r.flightTrigger("durable-marker-unreadable",
			fmt.Sprintf("sealed marker unreadable, disk restores %d", adopted))
		r.env.Logf("durable restore: sealed marker unreadable (disk restores %d); discarding local state", adopted)
		return
	}
	if hasMarker && marker.Height > adopted {
		// The enclave attests more durable progress than the disk
		// restores: the data directory was rolled back (or wiped and
		// partially refilled). Discard it entirely — a rolled-back
		// ledger must not be served to peers — and rebuild from the
		// cluster via recovery, block sync and snapshot transfer. The
		// configuration learned from the verified prefix is kept: it is
		// genuine, and resyncing needs the newest ring this node can
		// prove.
		r.m.durableRollbacks.Inc()
		r.flightTrigger("durable-rollback",
			fmt.Sprintf("sealed marker attests height %d, disk restores %d", marker.Height, adopted))
		r.env.Logf("durable restore: disk rollback detected (sealed marker attests height %d, disk restores %d); discarding local state",
			marker.Height, adopted)
		r.sealDurableMarker(marker.Height)
		return
	}
	if adopted == 0 {
		return
	}

	restored := 0
	if snap != nil {
		if err := r.machine.Restore(snap.Machine); err != nil {
			r.env.Logf("durable restore: machine snapshot rejected: %v", err)
			return
		}
		if err := r.store.Bootstrap(snap.Block); err != nil {
			r.env.Logf("durable restore: %v", err)
			return
		}
		r.prebBlock, r.prebBC, r.prebCC = snap.Block, nil, snap.CC
		r.lastCC = snap.CC
	}
	for _, ba := range batches {
		parent := r.store.Get(ba.blocks[0].Parent)
		for _, b := range ba.blocks {
			r.store.Add(b)
		}
		if _, err := r.store.Commit(ba.cc.Hash); err != nil {
			r.env.Logf("durable restore: %v", err)
			break
		}
		for _, b := range ba.blocks {
			if parent != nil {
				r.machine.Execute(parent.Op, b.Txs)
			}
			parent = b
			restored++
		}
		tip := ba.blocks[len(ba.blocks)-1]
		r.prebBlock, r.prebBC, r.prebCC = tip, nil, ba.cc
		if r.lastCC == nil || ba.cc.View > r.lastCC.View {
			r.lastCC = ba.cc
		}
	}
	r.m.restoredBlocks.Add(uint64(restored))
	r.obsHeight.Store(uint64(r.store.CommittedHeight()))
	r.obsRestored.Store(uint64(r.store.CommittedHeight()))
	r.sealDurableMarker(max(marker.Height, d.SnapshotHeight()))
	snapHeight := types.Height(0)
	if snap != nil {
		snapHeight = snap.Height
	}
	r.env.Logf("durable restore: committed height %d (snapshot at %d, %d WAL blocks, torn %d bytes)",
		r.store.CommittedHeight(), snapHeight, restored, rec.WalInfo.TornBytes)
}

// verifyRestoredCC checks a restored commit certificate's quorum
// against the PKI ring with host-speed crypto (the checker re-verifies
// in-enclave whenever the certificate is used for consensus state).
func (r *Replica) verifyRestoredCC(cc *types.CommitCert) bool {
	if cc == nil || len(cc.Signers) < r.quorum() {
		return false
	}
	return r.svc.VerifyQuorum(cc.Signers, types.StoreCertPayload(cc.Hash, cc.View, cc.Height), cc.Sigs)
}

// persistCommits durably logs a freshly committed batch. The
// certificate rides only the batch tip; ancestors committed
// transitively by the same certificate carry nil. A failed append is
// logged and counted, and the node keeps running in-memory: local
// durability is a restart optimization, never a safety dependency.
func (r *Replica) persistCommits(newly []*types.Block, cc *types.CommitCert) {
	d := r.cfg.Durable
	if d == nil || len(newly) == 0 {
		return
	}
	if ctx := r.traceCtx(); ctx.Sampled {
		t0 := time.Now()
		tip := newly[len(newly)-1]
		defer func() {
			r.observeSpan(ctx, obs.StageDurable, cc.View, tip.Height, time.Since(t0), "")
		}()
	}
	for _, nb := range newly {
		var rc *types.CommitCert
		if nb.Hash() == cc.Hash {
			rc = cc
		}
		if err := d.AppendCommit(nb, rc); err != nil {
			r.m.walErrors.Inc()
			r.env.Logf("durable append at height %d failed: %v", nb.Height, err)
			return
		}
	}
}

// maybeSnapshot checkpoints the state machine if the snapshot interval
// has elapsed, and reseals the durable marker to attest the progress.
func (r *Replica) maybeSnapshot(head *types.Block, cc *types.CommitCert) {
	d := r.cfg.Durable
	if d == nil {
		return
	}
	wrote, err := d.MaybeSnapshot(head, cc, r.machine.Snapshot)
	if err != nil {
		r.m.walErrors.Inc()
		r.env.Logf("snapshot at height %d failed: %v", head.Height, err)
		return
	}
	if wrote {
		r.m.snapshotsWritten.Inc()
		r.sealDurableMarker(head.Height)
	}
}
