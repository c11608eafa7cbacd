package ledger

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/obs"
	"achilles/internal/types"
	"achilles/internal/wal"
)

// This file implements the durable layer under the ledger: every
// committed block is appended to a WAL as a self-contained record, and
// the state machine is periodically checkpointed into a snapshot file
// so a restart replays only the WAL suffix written since. The layer is
// strictly structural — it decodes, chains and bounds what it reads —
// while certificate verification stays with the consensus core, which
// refuses to adopt any restored state whose commit certificates do not
// carry a valid quorum.

// Record kinds: the first byte of every WAL record payload. Kinds are
// part of the on-disk format: never reuse or renumber one.
const (
	// recCommitGob was the gob-coded commit record of builds that
	// predate the binary codec. It is recognised only to be refused.
	recCommitGob = byte(1)
	// recCommit is the binary commit record:
	// [kind][u64 Epoch][Block][CommitCert] (types/wirefast.go layouts).
	recCommit = byte(2)
)

// snapKeep is how many snapshot generations are retained; the WAL is
// pruned only below the oldest retained one, so a damaged newest
// snapshot still leaves a usable (snapshot, suffix) pair.
const snapKeep = 2

const (
	snapPrefix = "snap-"
	snapSuffix = ".bsnap"
	// legacySnapSuffix names the gob snapshots of builds that predate
	// the binary codec; a data directory holding one is refused.
	legacySnapSuffix = ".snap"
)

// Snapshot blob layout: snapMagic, the version byte, the body, and a
// CRC32-Castagnoli trailer over everything before it. The checksum
// tells a damaged file (skipped in favour of an older generation) from
// a readable one; the version byte tells a readable file this build
// cannot interpret (refused).
const (
	snapMagic   = "ACHSNAP"
	snapVersion = byte(2)
	// maxSnapMachine bounds the serialized state machine (the snapshot
	// transfer's chunk bounds allow 1 GiB in total).
	maxSnapMachine = 1 << 30
	// maxSnapLineage bounds the epoch-transition proofs in a snapshot.
	maxSnapLineage = 1 << 10
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// CommitRecord is one durably logged commit. CC is the commit
// certificate that committed this block; it is carried only on the
// last block of each commit batch (ancestors committed transitively by
// the same certificate have it nil), mirroring how certificates
// justify chained commits on the live path.
type CommitRecord struct {
	Block *types.Block
	CC    *types.CommitCert
	// Epoch is the configuration epoch the block committed under; a
	// restore verifies each record against the membership in force at
	// its height rather than the boot-time ring.
	Epoch types.Epoch
}

// Snapshot is a checkpoint of the committed state: the tip block, the
// certificate that committed it, the serialized state machine, and
// the WAL position it covers. The same encoding is written to disk
// and chunked over the wire for catch-up past a pruning horizon.
type Snapshot struct {
	Height  types.Height
	Block   *types.Block
	CC      *types.CommitCert
	Machine []byte
	// WalSeq is the sequence number of the last WAL record whose
	// effects the snapshot includes; restart replays from WalSeq+1.
	WalSeq uint64
	// Epoch and Member pin the configuration in force at the snapshot
	// tip; Pending carries a committed-but-not-yet-active reconfiguration
	// so a restart re-arms its activation. Epoch 0 with nil memberships
	// means the boot configuration.
	Epoch   types.Epoch
	Member  *types.Membership
	Pending *types.Membership
	// Lineage carries the epoch-transition proofs the snapshotting node
	// retained, oldest first. A requester whose active epoch trails the
	// snapshot's verifies them hop by hop (each hop's certificate signs
	// under the previous epoch's ring) instead of rejecting the snapshot
	// outright — without it, a node that slept through a reconfiguration
	// past its peers' pruning horizon could never rejoin.
	Lineage []*types.EpochTransition
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() ([]byte, error) {
	b := append([]byte(snapMagic), snapVersion)
	b = types.WireAppendU64(b, uint64(s.Height))
	b = types.AppendWireBlock(b, s.Block)
	b = types.AppendWireCommitCert(b, s.CC)
	b = types.WireAppendBytes(b, s.Machine)
	b = types.WireAppendU64(b, s.WalSeq)
	b = types.WireAppendU64(b, uint64(s.Epoch))
	b = types.AppendWireMembership(b, s.Member)
	b = types.AppendWireMembership(b, s.Pending)
	b = types.WireAppendU32(b, uint32(len(s.Lineage)))
	for _, t := range s.Lineage {
		b = types.AppendWireEpochTransition(b, t)
	}
	return types.WireAppendU32(b, crc32.Checksum(b, snapCRC)), nil
}

// DecodeSnapshot parses and structurally validates a snapshot blob.
// It checks internal consistency (block present, certificate bound to
// the block, heights agree) but NOT certificate signatures — the
// consensus core must verify the quorum before adopting the state. An
// intact blob of another format version fails with
// types.ErrUnsupportedRecord.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	const head = len(snapMagic) + 1
	if len(data) < head+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("ledger: damaged snapshot: bad magic")
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRC) != types.NewWireReader(sum).U32() {
		return nil, errors.New("ledger: damaged snapshot: checksum mismatch")
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("ledger: snapshot version %d: %w", v, types.ErrUnsupportedRecord)
	}
	r := types.NewWireReader(body[head:])
	s := Snapshot{
		Height:  types.Height(r.U64()),
		Block:   types.ReadWireBlock(r),
		CC:      types.ReadWireCommitCert(r),
		Machine: r.Bytes(maxSnapMachine),
		WalSeq:  r.U64(),
		Epoch:   types.Epoch(r.U64()),
		Member:  types.ReadWireMembership(r),
		Pending: types.ReadWireMembership(r),
	}
	if n := r.Count(maxSnapLineage, 1); n > 0 {
		s.Lineage = make([]*types.EpochTransition, n)
		for i := range s.Lineage {
			s.Lineage[i] = types.ReadWireEpochTransition(r)
		}
	}
	if r.Err() || r.Len() != 0 {
		return nil, errors.New("ledger: damaged snapshot: malformed body")
	}
	if s.Block == nil || s.CC == nil {
		return nil, errors.New("ledger: snapshot missing block or certificate")
	}
	if s.Height != s.Block.Height || s.Height == 0 {
		return nil, fmt.Errorf("ledger: snapshot height %d disagrees with block height %d",
			s.Height, s.Block.Height)
	}
	if s.CC.Hash != s.Block.Hash() {
		return nil, errors.New("ledger: snapshot certificate does not certify its block")
	}
	return &s, nil
}

// Recovered is what OpenDurable reconstructed from disk.
type Recovered struct {
	// Snapshot is the newest intact snapshot, nil if none.
	Snapshot *Snapshot
	// Commits is the chained WAL suffix after the snapshot, in chain
	// order. Records past the last one carrying a certificate are
	// included; the core only adopts certificate-covered prefixes.
	Commits []CommitRecord
	// BadSnapshots counts snapshot files that failed to decode and
	// were skipped in favor of an older generation.
	BadSnapshots int
	// WalInfo reports what the WAL open found and repaired.
	WalInfo wal.OpenInfo
}

// Tip returns the height and hash of the newest restored block
// (zero values when nothing was recovered).
func (r *Recovered) Tip() (types.Height, types.Hash) {
	if n := len(r.Commits); n > 0 {
		b := r.Commits[n-1].Block
		return b.Height, b.Hash()
	}
	if r.Snapshot != nil {
		return r.Snapshot.Height, r.Snapshot.Block.Hash()
	}
	return 0, types.ZeroHash
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the data directory (WAL segments + snapshots).
	Dir string
	// Fsync is the WAL flush policy.
	Fsync wal.Policy
	// SegmentBytes overrides the WAL segment size (0 = default).
	SegmentBytes int64
	// SnapshotInterval takes a snapshot every this many committed
	// heights (0 = 512).
	SnapshotInterval types.Height
	// KeepWAL disables WAL pruning at snapshots, retaining the full
	// commit history (the durability bench replays it).
	KeepWAL bool
	// IgnoreSnapshots makes OpenDurable rebuild purely from the WAL,
	// as if no snapshot existed (bench: full-replay restart cost).
	IgnoreSnapshots bool
	// Obs, if set, registers wal_* and snapshot_* metrics.
	Obs *obs.Registry
}

// Durable is the ledger's persistence handle: an open WAL plus
// snapshot management. Methods are safe for concurrent use, though
// the consensus core drives them from a single goroutine.
type Durable struct {
	mu       sync.Mutex
	log      *wal.Log
	dir      string
	interval types.Height
	keepWAL  bool

	rec         *Recovered
	lastSeq     uint64 // WAL seq of the newest commit record
	snapHeight  types.Height
	snapSeq     uint64 // WalSeq of the newest snapshot
	prevSnapSeq uint64 // WalSeq of the previous retained snapshot

	epoch   types.Epoch
	member  *types.Membership
	pending *types.Membership

	obsHeight atomic.Int64
	obsBytes  atomic.Int64
	obsUnix   atomic.Int64
}

// OpenDurable opens the data directory, repairs a torn WAL tail,
// loads the newest intact snapshot and chains the WAL suffix after
// it. Corruption of previously durable state fails with wal.ErrCorrupt;
// records or snapshots in a format this build does not read (those of
// pre-binary-codec builds) fail with types.ErrUnsupportedRecord.
func OpenDurable(opts DurableOptions) (*Durable, error) {
	if opts.Dir == "" {
		return nil, errors.New("ledger: DurableOptions.Dir is required")
	}
	interval := opts.SnapshotInterval
	if interval == 0 {
		interval = 512
	}
	log, err := wal.Open(wal.Options{
		Dir:          filepath.Join(opts.Dir, "wal"),
		Policy:       opts.Fsync,
		SegmentBytes: opts.SegmentBytes,
		Obs:          opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	d := &Durable{log: log, dir: opts.Dir, interval: interval, keepWAL: opts.KeepWAL}
	d.registerMetrics(opts.Obs)

	rec := &Recovered{WalInfo: log.Info()}
	if err := refuseLegacySnapshots(opts.Dir); err != nil {
		log.Close()
		return nil, err
	}
	if !opts.IgnoreSnapshots {
		rec.Snapshot, rec.BadSnapshots, err = loadNewestSnapshot(opts.Dir)
		if err != nil {
			log.Close()
			return nil, err
		}
	}
	from := uint64(1)
	base := types.GenesisBlock()
	if rec.Snapshot != nil {
		from = rec.Snapshot.WalSeq + 1
		base = rec.Snapshot.Block
		d.snapHeight = rec.Snapshot.Height
		d.snapSeq = rec.Snapshot.WalSeq
		d.obsHeight.Store(int64(rec.Snapshot.Height))
	}
	tip := base
	err = log.Replay(from, func(seq uint64, payload []byte) error {
		cr, derr := decodeCommitRecord(payload)
		if errors.Is(derr, types.ErrUnsupportedRecord) {
			return fmt.Errorf("ledger: WAL seq %d: %w", seq, derr)
		}
		if derr != nil {
			return fmt.Errorf("%w: WAL seq %d: %v", wal.ErrCorrupt, seq, derr)
		}
		if cr.Block.Height <= tip.Height {
			// Records overlapping the snapshot's coverage (written
			// before an installed snapshot advanced the tip) are stale.
			return nil
		}
		if cr.Block.Parent != tip.Hash() || cr.Block.Height != tip.Height+1 {
			return fmt.Errorf("%w: WAL seq %d: block %d does not chain from restored tip %d",
				wal.ErrCorrupt, seq, cr.Block.Height, tip.Height)
		}
		tip = cr.Block
		rec.Commits = append(rec.Commits, cr)
		d.lastSeq = seq
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	if d.lastSeq == 0 {
		d.lastSeq = log.LastSeq()
	}
	d.rec = rec
	return d, nil
}

// Recovered returns what OpenDurable reconstructed.
func (d *Durable) Recovered() *Recovered {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rec
}

// SetEpochConfig records the configuration epoch to stamp into
// subsequent commit records and snapshots. The core calls it at boot,
// when a reconfiguration is scheduled, and at each epoch activation.
func (d *Durable) SetEpochConfig(epoch types.Epoch, member, pending *types.Membership) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch, d.member, d.pending = epoch, member, pending
}

// AppendCommit durably logs one committed block. cc must be set on
// the final block of each commit batch and nil on its ancestors.
func (d *Durable) AppendCommit(b *types.Block, cc *types.CommitCert) error {
	d.mu.Lock()
	epoch := d.epoch
	d.mu.Unlock()
	bp := types.GetWireBuf()
	*bp = appendCommitRecord(*bp, &CommitRecord{Block: b, CC: cc, Epoch: epoch})
	d.mu.Lock()
	defer d.mu.Unlock()
	seq, err := d.log.Append(*bp)
	types.PutWireBuf(bp)
	if err != nil {
		return err
	}
	d.lastSeq = seq
	return nil
}

// MaybeSnapshot checkpoints (head, cc, machine()) if at least the
// configured interval of heights has passed since the last snapshot.
// Returns whether a snapshot was written.
func (d *Durable) MaybeSnapshot(head *types.Block, cc *types.CommitCert, machine func() []byte) (bool, error) {
	d.mu.Lock()
	due := head != nil && cc != nil && head.Height >= d.snapHeight+d.interval
	d.mu.Unlock()
	if !due {
		return false, nil
	}
	if err := d.WriteSnapshot(head, cc, machine()); err != nil {
		return false, err
	}
	return true, nil
}

// WriteSnapshot checkpoints the given committed tip unconditionally.
// The WAL is synced first so the snapshot never claims coverage of
// records that could still be torn away by a crash.
func (d *Durable) WriteSnapshot(head *types.Block, cc *types.CommitCert, machine []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Sync(); err != nil {
		return err
	}
	s := &Snapshot{
		Height: head.Height, Block: head, CC: cc, Machine: machine, WalSeq: d.lastSeq,
		Epoch: d.epoch, Member: d.member, Pending: d.pending,
	}
	return d.installLocked(s)
}

// InstallSnapshot persists a remotely transferred (and already
// verified) snapshot. Local WAL records become stale — the snapshot
// claims coverage of everything logged so far, so a restart restores
// from it and replays only records appended afterwards.
func (d *Durable) InstallSnapshot(s *Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Sync(); err != nil {
		return err
	}
	cp := *s
	cp.WalSeq = d.lastSeq
	return d.installLocked(&cp)
}

func (d *Durable) installLocked(s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s%016x%s", snapPrefix, uint64(s.Height), snapSuffix)
	tmp := filepath.Join(d.dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	d.prevSnapSeq, d.snapSeq = d.snapSeq, s.WalSeq
	d.snapHeight = s.Height
	d.obsHeight.Store(int64(s.Height))
	d.obsBytes.Store(int64(len(data)))
	d.obsUnix.Store(time.Now().Unix())
	d.gcLocked()
	if !d.keepWAL {
		// Keep the WAL back to the previous retained snapshot so a
		// damaged newest snapshot still leaves a recoverable pair.
		if err := d.log.TruncateBefore(d.prevSnapSeq + 1); err != nil {
			return err
		}
	}
	return nil
}

// gcLocked removes snapshot generations beyond snapKeep.
func (d *Durable) gcLocked() {
	names, _ := listSnapshots(d.dir)
	for i := 0; i+snapKeep < len(names); i++ {
		os.Remove(filepath.Join(d.dir, names[i]))
	}
}

// Sync flushes the WAL to stable storage.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Sync()
}

// Close flushes and closes the WAL.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// Abort drops the durable layer without flushing — the crash-test
// equivalent of kill -9.
func (d *Durable) Abort() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log.Abort()
}

// Log exposes the underlying WAL (tests and fault injection).
func (d *Durable) Log() *wal.Log { return d.log }

// WALDir returns the WAL directory under the data dir.
func (d *Durable) WALDir() string { return d.log.Dir() }

// SnapshotHeight returns the height of the newest snapshot.
func (d *Durable) SnapshotHeight() types.Height {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapHeight
}

func (d *Durable) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("snapshot_height", "Height of the newest state snapshot.", obs.KindGauge,
		func() []obs.Sample { return []obs.Sample{{Value: float64(d.obsHeight.Load())}} })
	reg.Func("snapshot_bytes", "Encoded size of the newest state snapshot.", obs.KindGauge,
		func() []obs.Sample { return []obs.Sample{{Value: float64(d.obsBytes.Load())}} })
	reg.Func("snapshot_age_seconds", "Seconds since the newest snapshot was written.", obs.KindGauge,
		func() []obs.Sample {
			at := d.obsUnix.Load()
			if at == 0 {
				return []obs.Sample{{Value: -1}}
			}
			return []obs.Sample{{Value: float64(time.Now().Unix() - at)}}
		})
}

// appendCommitRecord appends the binary commit record to b.
func appendCommitRecord(b []byte, cr *CommitRecord) []byte {
	b = append(b, recCommit)
	b = types.WireAppendU64(b, uint64(cr.Epoch))
	b = types.AppendWireBlock(b, cr.Block)
	return types.AppendWireCommitCert(b, cr.CC)
}

// decodeCommitRecord parses one WAL record payload. The WAL checksum
// has already vouched for the bytes, so an unknown kind is a format
// this build does not read (types.ErrUnsupportedRecord), not damage.
func decodeCommitRecord(payload []byte) (CommitRecord, error) {
	var cr CommitRecord
	if len(payload) == 0 {
		return cr, errors.New("empty record")
	}
	switch kind := payload[0]; kind {
	case recCommit:
	case recCommitGob:
		return cr, fmt.Errorf("gob commit record from a pre-binary build: %w", types.ErrUnsupportedRecord)
	default:
		return cr, fmt.Errorf("record kind %d: %w", kind, types.ErrUnsupportedRecord)
	}
	r := types.NewWireReader(payload[1:])
	cr.Epoch = types.Epoch(r.U64())
	cr.Block = types.ReadWireBlock(r)
	cr.CC = types.ReadWireCommitCert(r)
	if r.Err() || r.Len() != 0 {
		return cr, errors.New("malformed commit record")
	}
	if cr.Block == nil {
		return cr, errors.New("commit record without block")
	}
	if cr.CC != nil && cr.CC.Hash != cr.Block.Hash() {
		return cr, errors.New("commit record certificate does not certify its block")
	}
	return cr, nil
}

// loadNewestSnapshot returns the newest snapshot that decodes, along
// with how many newer generations were skipped as damaged. A snapshot
// in a format this build does not read is never skipped: falling back
// past it would silently restore older state, so it fails the open.
func loadNewestSnapshot(dir string) (*Snapshot, int, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	bad := 0
	for i := len(names) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(dir, names[i]))
		if rerr != nil {
			bad++
			continue
		}
		s, derr := DecodeSnapshot(data)
		if errors.Is(derr, types.ErrUnsupportedRecord) {
			return nil, bad, fmt.Errorf("ledger: snapshot %s: %w", names[i], derr)
		}
		if derr != nil {
			bad++
			continue
		}
		return s, bad, nil
	}
	return nil, bad, nil
}

// refuseLegacySnapshots fails when the data directory holds a snapshot
// written by a build that predates the binary codec.
func refuseLegacySnapshots(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ledger: %w", err)
	}
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, legacySnapSuffix) {
			return fmt.Errorf("ledger: snapshot %s is a gob snapshot from a pre-binary build: %w",
				n, types.ErrUnsupportedRecord)
		}
	}
	return nil
}

func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, snapPrefix) || !strings.HasSuffix(n, snapSuffix) || e.IsDir() {
			continue
		}
		if _, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, snapPrefix), snapSuffix), 16, 64); perr != nil {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
