package ledger

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"achilles/internal/types"
	"achilles/internal/wal"
)

// fullSnapshot returns a snapshot with every optional part populated:
// memberships with keys and addresses, and a two-hop lineage.
func fullSnapshot() *Snapshot {
	blocks, certs := durableChain(3)
	member := &types.Membership{
		Epoch: 2, ActivateAt: 40,
		Members: []types.NodeID{0, 1, 3},
		Keys:    map[types.NodeID][]byte{0: {1}, 1: {2, 2}, 3: {3, 3, 3}},
		Addrs:   map[types.NodeID]string{0: "127.0.0.1:1", 3: "127.0.0.1:3"},
	}
	pending := member.Clone()
	pending.Epoch, pending.ActivateAt = 3, 50
	rc := &types.Reconfig{Op: types.ReconfigAdd, Node: 3, Key: []byte{3, 3, 3}, Addr: "127.0.0.1:3", Signer: 0, Sig: []byte{9}}
	return &Snapshot{
		Height: 3, Block: blocks[2], CC: certs[2], Machine: []byte("machine-state"), WalSeq: 17,
		Epoch: 2, Member: member, Pending: pending,
		Lineage: []*types.EpochTransition{
			{Epoch: 1, Rc: rc, Blocks: blocks[:2], CC: certs[1]},
			{Epoch: 2, Rc: &types.Reconfig{Op: types.ReconfigRemove, Node: 2, Signer: 1, Sig: []byte{8}}, Blocks: blocks[2:], CC: certs[2]},
		},
	}
}

// hashBlocks fills every block's cached digest so decoded snapshots
// compare deep-equal with originals whose digests were computed.
func hashBlocks(s *Snapshot) {
	s.Block.Hash()
	for _, t := range s.Lineage {
		for _, b := range t.Blocks {
			b.Hash()
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"full":    fullSnapshot(),
		"minimal": {Height: 3, Block: fullSnapshot().Block, CC: fullSnapshot().CC},
	} {
		t.Run(name, func(t *testing.T) {
			hashBlocks(s)
			data, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			hashBlocks(got)
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", s, got)
			}
			again, _ := got.Encode()
			if !bytes.Equal(again, data) {
				t.Fatal("re-encoding differs")
			}
		})
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	blocks, certs := durableChain(2)
	for _, cr := range []CommitRecord{
		{Block: blocks[1], CC: certs[1], Epoch: 4},
		{Block: blocks[0]}, // an ancestor committed transitively: no certificate
	} {
		enc := appendCommitRecord(nil, &cr)
		got, err := decodeCommitRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		got.Block.Hash()
		if !reflect.DeepEqual(got, cr) {
			t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", cr, got)
		}
		if again := appendCommitRecord(nil, &got); !bytes.Equal(again, enc) {
			t.Fatal("re-encoding differs")
		}
	}
}

// TestLegacyGobCommitRecordRefused: a data directory whose WAL holds a
// gob commit record (kind 1, as builds that predate the binary codec
// wrote it) fails to open with ErrUnsupportedRecord — not skipped, not
// classified as repairable corruption.
func TestLegacyGobCommitRecordRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{Dir: dir, Fsync: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	blocks, certs := durableChain(2)
	appendChain(t, d, blocks[:1], certs[:1])
	var legacy bytes.Buffer
	legacy.WriteByte(recCommitGob)
	if err := gob.NewEncoder(&legacy).Encode(&CommitRecord{Block: blocks[1], CC: certs[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Log().Append(legacy.Bytes()); err != nil {
		t.Fatal(err)
	}
	d.Close()
	_, err = OpenDurable(DurableOptions{Dir: dir})
	if !errors.Is(err, types.ErrUnsupportedRecord) || errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("reopen over a gob record: err = %v, want ErrUnsupportedRecord", err)
	}
}

// TestLegacySnapshotRefused: a gob snapshot file (the pre-binary
// snap-*.snap name) or a snapshot of an unknown version fails the open
// loudly instead of falling back to an older generation.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{Dir: dir, Fsync: wal.PolicyAlways, SnapshotInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks, certs := durableChain(4)
	for i := range blocks {
		if err := d.AppendCommit(blocks[i], certs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.MaybeSnapshot(blocks[i], certs[i], func() []byte { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	names, err := listSnapshots(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("snapshots on disk: %v (%v)", names, err)
	}

	// An intact snapshot of another version.
	newest := filepath.Join(dir, names[1])
	good, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := DecodeSnapshot(good)
	future, _ := s.Encode()
	future[len(snapMagic)] = snapVersion + 1
	future = types.WireAppendU32(future[:len(future)-4], crcOf(future[:len(future)-4]))
	if err := os.WriteFile(newest, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(DurableOptions{Dir: dir}); !errors.Is(err, types.ErrUnsupportedRecord) {
		t.Fatalf("reopen over a future-version snapshot: err = %v, want ErrUnsupportedRecord", err)
	}
	if err := os.WriteFile(newest, good, 0o644); err != nil {
		t.Fatal(err)
	}

	// A gob snapshot under the legacy name.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(s); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s%016x%s", snapPrefix, uint64(9), legacySnapSuffix)
	if err := os.WriteFile(filepath.Join(dir, name), legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(DurableOptions{Dir: dir}); !errors.Is(err, types.ErrUnsupportedRecord) {
		t.Fatalf("reopen beside a gob snapshot: err = %v, want ErrUnsupportedRecord", err)
	}
}

// TestForgedSnapshotLengthCannotForceAllocation: a checksummed
// snapshot claiming a 1 GiB state machine it does not carry is refused
// without allocating for the claim.
func TestForgedSnapshotLengthCannotForceAllocation(t *testing.T) {
	s := fullSnapshot()
	data, _ := s.Encode()
	// Rewrite Machine's length prefix (after magic, version, height,
	// block and certificate) to claim maxSnapMachine bytes.
	off := len(snapMagic) + 1 + 8
	off += len(types.AppendWireBlock(nil, s.Block)) + len(types.AppendWireCommitCert(nil, s.CC))
	forged := append([]byte(nil), data[:len(data)-4]...)
	copy(forged[off:], types.WireAppendU32(nil, maxSnapMachine))
	forged = types.WireAppendU32(forged, crcOf(forged))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	_, err := DecodeSnapshot(forged)
	runtime.ReadMemStats(&ms1)
	if err == nil {
		t.Fatal("forged snapshot decoded")
	}
	if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a forged snapshot allocated %d bytes", alloc)
	}
}

func crcOf(b []byte) uint32 { return crc32.Checksum(b, snapCRC) }

// FuzzCommitRecord feeds arbitrary WAL payloads to the commit-record
// decoder: it must never panic, and any payload it accepts must
// re-encode to exactly the same bytes.
func FuzzCommitRecord(f *testing.F) {
	blocks, certs := durableChain(2)
	f.Add(appendCommitRecord(nil, &CommitRecord{Block: blocks[1], CC: certs[1], Epoch: 2}))
	f.Add(appendCommitRecord(nil, &CommitRecord{Block: blocks[0]}))
	f.Add([]byte{recCommitGob, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cr, err := decodeCommitRecord(payload)
		if err != nil {
			return
		}
		if again := appendCommitRecord(nil, &cr); !bytes.Equal(again, payload) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", payload, again)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary blobs to DecodeSnapshot: it must
// never panic, and any blob it accepts must re-encode identically.
func FuzzSnapshotDecode(f *testing.F) {
	full, _ := fullSnapshot().Encode()
	f.Add(full)
	blocks, certs := durableChain(1)
	minimal, _ := (&Snapshot{Height: 1, Block: blocks[0], CC: certs[0]}).Encode()
	f.Add(minimal)
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if again, _ := s.Encode(); !bytes.Equal(again, data) {
			t.Fatal("accepted snapshot re-encodes differently")
		}
	})
}

// BenchmarkCommitRecord measures the per-block WAL record codec at a
// near-empty (2 tx) and a full (400 tx of 1 KiB) block.
func BenchmarkCommitRecord(b *testing.B) {
	sig := bytes.Repeat([]byte{0xab}, 71)
	for _, n := range []int{2, 400} {
		txs := make([]types.Transaction, n)
		for i := range txs {
			txs[i] = types.Transaction{Client: types.ClientIDBase + types.NodeID(i%64), Seq: uint32(i + 1),
				Payload: bytes.Repeat([]byte{byte(i)}, 1024), Created: types.Time(i)}
		}
		blk := &types.Block{Txs: txs, Op: []byte{1, 2, 3}, Parent: types.HashBytes([]byte("p")), View: 9, Height: 77, Proposer: 1}
		cc := &types.CommitCert{Hash: blk.Hash(), View: 9, Height: 77, Signers: []types.NodeID{0, 1}, Sigs: []types.Signature{sig, sig}}
		cr := CommitRecord{Block: blk, CC: cc, Epoch: 1}
		b.Run(fmt.Sprintf("encode-%dtx", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bp := types.GetWireBuf()
				*bp = appendCommitRecord(*bp, &cr)
				types.PutWireBuf(bp)
			}
		})
		payload := appendCommitRecord(nil, &cr)
		b.Run(fmt.Sprintf("decode-%dtx", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeCommitRecord(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
