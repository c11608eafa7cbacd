package tee

// Key-rotation sealing tests: blobs sealed under an old epoch's key
// must fail loudly with the typed *StaleEpochError (never decode
// garbage, never fail indistinguishably from tampering), and a key
// rotation interrupted by kill -9 at ANY point must leave a fully
// recoverable sealed store — the epoch-marker write is the single
// atomic commit point, with UnsealPrev as the one-epoch grace path for
// dependent blobs the crash left behind.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"achilles/internal/types"
)

func rotationEnclave(store SealedStore) *Enclave {
	var secret [32]byte
	secret[0] = 0x5e
	return New(Config{
		Measurement:   Measurement{1, 2, 3},
		MachineSecret: secret,
		Store:         store,
	})
}

func cfgHash(b byte) types.Hash {
	var h types.Hash
	h[0] = b
	return h
}

// TestSealerStaleEpochTyped pins the Sealer-level contract: an
// old-epoch blob surfaces as *StaleEpochError carrying both epochs,
// distinguishable from corruption via errors.As.
func TestSealerStaleEpochTyped(t *testing.T) {
	var secret [32]byte
	m := Measurement{9}
	old := NewSealerAt(secret, m, 3)
	cur := NewSealerAt(secret, m, 4)
	sealed := old.Seal([]byte("counter-state"))

	_, err := cur.Unseal(sealed)
	var stale *StaleEpochError
	if !errors.As(err, &stale) {
		t.Fatalf("unseal of old-epoch blob: got %v, want *StaleEpochError", err)
	}
	if stale.BlobEpoch != 3 || stale.SealerEpoch != 4 {
		t.Fatalf("stale error epochs = %d/%d, want 3/4", stale.BlobEpoch, stale.SealerEpoch)
	}
	// Corruption stays a distinct error: a tampered same-epoch blob is
	// ErrSealCorrupt, not a stale epoch.
	cursed := cur.Seal([]byte("x"))
	cursed[len(cursed)-1] ^= 0x80
	if _, err := cur.Unseal(cursed); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("tampered blob: got %v, want ErrSealCorrupt", err)
	}
	// Lying about the header does not help: rewriting the epoch word to
	// match the current sealer still fails AEAD authentication.
	forged := append([]byte(nil), sealed...)
	copy(forged[:sealEpochHeaderSize], cur.Seal(nil)[:sealEpochHeaderSize])
	if _, err := cur.Unseal(forged); !errors.Is(err, ErrSealCorrupt) {
		t.Fatalf("header-forged blob: got %v, want ErrSealCorrupt", err)
	}
}

// TestEnclaveRotationStaleBlobFailsLoudly drives the same contract
// through the enclave on a DirStore: after AdvanceEpoch, a blob sealed
// in the previous epoch is refused with the typed error, readable only
// through the explicit UnsealPrev grace path, and unreadable by
// anything once it is two epochs old.
func TestEnclaveRotationStaleBlobFailsLoudly(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := rotationEnclave(ds)
	e.Seal("state", []byte("epoch0-state"))

	if err := e.AdvanceEpoch(1, cfgHash(1)); err != nil {
		t.Fatalf("advance: %v", err)
	}
	_, err = e.UnsealE("state")
	var stale *StaleEpochError
	if !errors.As(err, &stale) {
		t.Fatalf("old-epoch blob after rotation: got %v, want *StaleEpochError", err)
	}
	if stale.BlobEpoch != 0 || stale.SealerEpoch != 1 {
		t.Fatalf("stale epochs = %d/%d, want 0/1", stale.BlobEpoch, stale.SealerEpoch)
	}
	// Grace path: previous epoch's key opens it, owner reseals.
	blob, err := e.UnsealPrev("state")
	if err != nil || !bytes.Equal(blob, []byte("epoch0-state")) {
		t.Fatalf("UnsealPrev = %q, %v", blob, err)
	}
	e.Seal("state", blob)
	if got, err := e.UnsealE("state"); err != nil || !bytes.Equal(got, []byte("epoch0-state")) {
		t.Fatalf("resealed blob = %q, %v", got, err)
	}

	// Two epochs on: neither the current key nor the grace path opens a
	// blob left behind at epoch 0.
	e.Seal("orphan", []byte("left-behind"))
	if err := e.AdvanceEpoch(2, cfgHash(2)); err != nil {
		t.Fatalf("advance 2: %v", err)
	}
	if err := e.AdvanceEpoch(3, cfgHash(3)); err != nil {
		t.Fatalf("advance 3: %v", err)
	}
	if _, err := e.UnsealE("orphan"); !errors.As(err, &stale) {
		t.Fatalf("two-epoch-old blob: got %v, want *StaleEpochError", err)
	}
	if _, err := e.UnsealPrev("orphan"); err == nil {
		t.Fatal("two-epoch-old blob opened through the one-epoch grace path")
	}
}

// TestAdvanceEpochMonotonic pins the marker semantics: idempotent
// replay of the current (epoch, hash), refusal of anything that does
// not strictly advance.
func TestAdvanceEpochMonotonic(t *testing.T) {
	e := rotationEnclave(nil)
	if err := e.AdvanceEpoch(2, cfgHash(2)); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if err := e.AdvanceEpoch(2, cfgHash(2)); err != nil {
		t.Fatalf("idempotent replay: %v", err)
	}
	if err := e.AdvanceEpoch(2, cfgHash(9)); err == nil {
		t.Fatal("same epoch under a different config hash accepted")
	}
	if err := e.AdvanceEpoch(1, cfgHash(1)); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if got := e.Epoch(); got != 2 {
		t.Fatalf("epoch = %d after refused advances, want 2", got)
	}
}

// TestRotationAtomicAcrossKill simulates kill -9 at every interleaving
// point of a rotation over an on-disk store: before the marker write,
// between the marker write and the dependent-blob reseal, and after.
// "Kill" is dropping the enclave and re-creating it over the same
// directory — exactly what a process restart sees. Every point must
// reboot into a state where the blob is recoverable and the epoch is
// unambiguous.
func TestRotationAtomicAcrossKill(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Enclave, *DirStore) {
		ds, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rotationEnclave(ds), ds
	}

	// Seed: epoch 0, one dependent blob.
	e, _ := open()
	e.Seal("state", []byte("v0"))

	// Kill point A — before any rotation: reboot restores epoch 0 and
	// the blob opens with the current key.
	e, _ = open()
	if got := e.Epoch(); got != 0 {
		t.Fatalf("reboot A: epoch = %d, want 0", got)
	}
	if blob, err := e.UnsealE("state"); err != nil || !bytes.Equal(blob, []byte("v0")) {
		t.Fatalf("reboot A: blob = %q, %v", blob, err)
	}

	// Kill point B — after AdvanceEpoch sealed the marker, before the
	// owner resealed the blob. The reboot must come up at epoch 1 (the
	// marker is the commit point) with the blob one epoch behind:
	// refused by the current key, recovered through UnsealPrev.
	if err := e.AdvanceEpoch(1, cfgHash(1)); err != nil {
		t.Fatalf("advance: %v", err)
	}
	e, _ = open() // kill -9 here: no reseal happened
	if got := e.Epoch(); got != 1 {
		t.Fatalf("reboot B: epoch = %d, want 1 (marker write is the commit point)", got)
	}
	var stale *StaleEpochError
	if _, err := e.UnsealE("state"); !errors.As(err, &stale) {
		t.Fatalf("reboot B: old blob under new key: got %v, want *StaleEpochError", err)
	}
	blob, err := e.UnsealPrev("state")
	if err != nil || !bytes.Equal(blob, []byte("v0")) {
		t.Fatalf("reboot B: grace path = %q, %v", blob, err)
	}
	e.Seal("state", blob) // the reboot-time reseal

	// Kill point C — after the reseal: reboot opens the blob directly.
	e, _ = open()
	if got := e.Epoch(); got != 1 {
		t.Fatalf("reboot C: epoch = %d, want 1", got)
	}
	if blob, err := e.UnsealE("state"); err != nil || !bytes.Equal(blob, []byte("v0")) {
		t.Fatalf("reboot C: blob = %q, %v", blob, err)
	}

	// Torn marker write: a crash inside DirStore.Put leaves only the
	// .tmp file — the rename never happened. The reboot must serve the
	// OLD marker (epoch 1), not the torn bytes.
	markerPath := filepath.Join(dir, "achilles-epoch-marker.sealed")
	if _, err := os.Stat(markerPath); err != nil {
		t.Fatalf("marker file: %v", err)
	}
	if err := os.WriteFile(markerPath+".tmp", []byte("torn half-written marker"), 0o600); err != nil {
		t.Fatal(err)
	}
	e, _ = open()
	if got := e.Epoch(); got != 1 {
		t.Fatalf("torn marker write: epoch = %d, want 1", got)
	}

	// Marker rollback: the adversary restores the epoch-0 marker from a
	// backup. The reboot derives old keys — and every current blob now
	// fails loudly with the typed stale error instead of being silently
	// decoded under the wrong configuration.
	oldMarker, err := os.ReadFile(markerPath)
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceEpoch(2, cfgHash(2))
	e.Seal("state", []byte("v2"))
	if err := os.WriteFile(markerPath, oldMarker, 0o600); err != nil {
		t.Fatal(err)
	}
	e, _ = open()
	if got := e.Epoch(); got != 1 {
		t.Fatalf("rolled-back marker: epoch = %d, want 1", got)
	}
	if _, err := e.UnsealE("state"); !errors.As(err, &stale) {
		t.Fatalf("rolled-back marker: current blob: got %v, want *StaleEpochError", err)
	}
	if stale.BlobEpoch != 2 || stale.SealerEpoch != 1 {
		t.Fatalf("rollback stale epochs = %d/%d, want 2/1", stale.BlobEpoch, stale.SealerEpoch)
	}
}

// TestUndecodableEpochMarkerReported: an authenticated epoch marker
// this build cannot decode (the gob marker of builds that predate the
// binary codec) is not read as "no marker" silently: the enclave stays
// at epoch 0 and reports it through EpochMarkerErr until a readable
// marker is sealed. A readable marker round-trips exactly.
func TestUndecodableEpochMarkerReported(t *testing.T) {
	st := NewVersionedStore()
	e := rotationEnclave(st)
	if err := e.AdvanceEpoch(2, cfgHash(2)); err != nil {
		t.Fatal(err)
	}
	e = rotationEnclave(st)
	if e.EpochMarkerErr() != nil || e.Epoch() != 2 || e.EpochConfigHash() != cfgHash(2) {
		t.Fatalf("readable marker: epoch %d hash %v err %v", e.Epoch(), e.EpochConfigHash(), e.EpochMarkerErr())
	}

	st.Put(epochMarkerName, e.base.Seal([]byte("\x2f\xff\x81\x03\x01\x01\x0bepochMarker")))
	e = rotationEnclave(st)
	if !errors.Is(e.EpochMarkerErr(), types.ErrUnsupportedRecord) {
		t.Fatalf("undecodable marker: EpochMarkerErr = %v, want ErrUnsupportedRecord", e.EpochMarkerErr())
	}
	if e.Epoch() != 0 {
		t.Fatalf("undecodable marker: epoch = %d, want 0", e.Epoch())
	}
	if err := e.AdvanceEpoch(3, cfgHash(3)); err != nil {
		t.Fatal(err)
	}
	if e.EpochMarkerErr() != nil {
		t.Fatal("EpochMarkerErr survives a freshly sealed marker")
	}
}
