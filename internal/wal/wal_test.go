package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	if err := l.Replay(from, func(seq uint64, p []byte) error {
		got[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 10, "rec")
	if got := l.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if info := l2.Info(); info.Records != 10 || info.TornBytes != 0 || info.IndexRebuilt {
		t.Fatalf("unexpected open info: %+v", info)
	}
	got := collect(t, l2, 1)
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("rec-%04d", i)
		if got[uint64(i+1)] != want {
			t.Fatalf("seq %d = %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
	if got := collect(t, l2, 8); len(got) != 3 {
		t.Fatalf("Replay(from=8) returned %d records, want 3", len(got))
	}
}

func TestRotationAndIndex(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "rotate") // ~19 B frames, forces many rotations
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("expected rotation, got %d segments", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	if l2.Segments() != segs {
		t.Fatalf("reopen found %d segments, want %d", l2.Segments(), segs)
	}
	if got := collect(t, l2, 1); len(got) != 40 {
		t.Fatalf("reopen replayed %d records, want 40", len(got))
	}
	// Continue appending across the reopen; sequences must not collide.
	appendN(t, l2, 5, "more")
	if got := l2.LastSeq(); got != 45 {
		t.Fatalf("LastSeq after reopen appends = %d, want 45", got)
	}
	l2.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 5, "torn")
	l.Abort() // crash: index still attests the count at creation (0)

	if _, err := NewInjector(1).TearFinalRecord(dir); err != nil {
		t.Fatalf("TearFinalRecord: %v", err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	info := l2.Info()
	if info.Records != 4 {
		t.Fatalf("recovered %d records, want 4 (torn fifth dropped): %+v", info.Records, info)
	}
	if info.TornBytes == 0 {
		t.Fatalf("open did not report torn bytes: %+v", info)
	}
	got := collect(t, l2, 1)
	if len(got) != 4 || got[4] != "torn-0003" {
		t.Fatalf("unexpected surviving records: %v", got)
	}
	// The log must accept new appends at the truncated position.
	if seq, err := l2.Append([]byte("after-torn")); err != nil || seq != 5 {
		t.Fatalf("Append after torn repair: seq=%d err=%v", seq, err)
	}
}

func TestTornTailAfterCleanCloseIsCorruption(t *testing.T) {
	// A clean Close wrote an index attesting all records durable; a
	// subsequently-missing tail is rollback, not a torn write.
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 5, "sealed")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := NewInjector(2).TearFinalRecord(dir); err != nil {
		t.Fatalf("TearFinalRecord: %v", err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open after tearing attested record: err=%v, want ErrCorrupt", err)
	}
}

func TestKillMidAppend(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 3, "pre")
	inj := NewInjector(7)
	inj.KillMidAppend(l)
	if _, err := l.Append(bytes.Repeat([]byte("x"), 100)); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("armed Append: err=%v, want ErrInjectedCrash", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("log survived its injected crash: %v", err)
	}
	l.Abort()

	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	info := l2.Info()
	if info.Records != 3 {
		t.Fatalf("recovered %d records, want 3: %+v", info.Records, info)
	}
	if info.TornBytes == 0 {
		t.Fatal("mid-append kill left no torn tail to repair")
	}
}

func TestInteriorBitFlipFailsLoudly(t *testing.T) {
	// Sealed-segment damage must never be silently truncated away.
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "flip")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	name, err := NewInjector(3).FlipBit(dir)
	if err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	_, err = Open(Options{Dir: dir, SegmentBytes: 256})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open after bit flip in %s: err=%v, want ErrCorrupt", name, err)
	}
}

func TestSingleSegmentInteriorFlipDetectedWithoutIndex(t *testing.T) {
	// Even with no index at all, a damaged record followed by a valid
	// one cannot be a torn tail: the lookahead must call it corruption.
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 6, "interior")
	l.Abort()
	inj := NewInjector(4)
	if _, err := inj.FlipBit(dir); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if err := inj.RemoveIndex(dir); err != nil {
		t.Fatalf("RemoveIndex: %v", err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open: err=%v, want ErrCorrupt", err)
	}
}

func TestMissingIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "idx")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := NewInjector(5).RemoveIndex(dir); err != nil {
		t.Fatalf("RemoveIndex: %v", err)
	}
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	info := l2.Info()
	if !info.IndexRebuilt {
		t.Fatalf("open did not report an index rebuild: %+v", info)
	}
	if info.Records != 40 {
		t.Fatalf("rebuild recovered %d records, want 40", info.Records)
	}
	if _, err := os.Stat(filepath.Join(dir, indexName)); err != nil {
		t.Fatalf("rebuilt index not rewritten: %v", err)
	}
}

func TestCorruptIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways})
	appendN(t, l, 8, "badidx")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if info := l2.Info(); !info.IndexRebuilt || info.Records != 8 {
		t.Fatalf("unexpected open info after corrupt index: %+v", info)
	}
}

func TestMissingSealedSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "gap")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := listSegments(dir)
	if err != nil || len(names) < 3 {
		t.Fatalf("want >=3 segments, got %v (%v)", names, err)
	}
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with missing sealed segment: err=%v, want ErrCorrupt", err)
	}
}

// TestTornTailAfterTruncateIsRepaired: pruning sealed segments
// rewrites the index, but must not attest the active segment's
// unsynced tail as durable — a crash right after a snapshot's
// truncation can still tear the newest record, and reopen has to
// repair it rather than refuse to start.
func TestTornTailAfterTruncateIsRepaired(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	appendN(t, l, 40, "trunc")
	if err := l.TruncateBefore(20); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	l.Abort()
	if cut, err := NewInjector(3).TearFinalRecord(dir); err != nil || cut == 0 {
		t.Fatalf("TearFinalRecord: cut=%d err=%v", cut, err)
	}
	l2, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open after tearing the newest record: %v", err)
	}
	defer l2.Close()
	if l2.LastSeq() != 39 || l2.Info().TornBytes == 0 {
		t.Fatalf("LastSeq=%d info=%+v, want 39 with a repaired torn tail", l2.LastSeq(), l2.Info())
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "trunc")
	segsBefore := l.Segments()
	if err := l.TruncateBefore(20); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	if l.Segments() >= segsBefore {
		t.Fatalf("TruncateBefore removed nothing (%d -> %d segments)", segsBefore, l.Segments())
	}
	got := collect(t, l, 20)
	for seq := uint64(20); seq <= 40; seq++ {
		if want := fmt.Sprintf("trunc-%04d", seq-1); got[seq] != want {
			t.Fatalf("seq %d = %q, want %q", seq, got[seq], want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen must tolerate the pruned prefix: the chain check starts at
	// the first surviving segment.
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	if l2.LastSeq() != 40 {
		t.Fatalf("LastSeq after pruned reopen = %d, want 40", l2.LastSeq())
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyAlways, PolicyBatch, PolicyNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, Options{Dir: dir, Policy: pol, BatchRecords: 4})
			appendN(t, l, 10, "pol")
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2 := mustOpen(t, Options{Dir: dir})
			if got := collect(t, l2, 1); len(got) != 10 {
				t.Fatalf("policy %v lost records: %d/10", pol, len(got))
			}
			l2.Close()
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"always": PolicyAlways, "batch": PolicyBatch, "none": PolicyNone, "": PolicyBatch} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestImplausibleLengthInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: PolicyAlways, SegmentBytes: 256})
	appendN(t, l, 40, "len")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := listSegments(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptRecordLen(data, 0)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open: err=%v, want ErrCorrupt", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("Append accepted an oversized record")
	}
}
