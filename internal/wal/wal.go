// Package wal implements the durable write-ahead log behind the
// Achilles ledger: a segmented append-only record log with CRC32C
// framing, configurable fsync batching, segment rotation with a
// sidecar index, and torn-tail truncation on open.
//
// Durability semantics follow the usual WAL contract: a record is
// durable once Append has returned under PolicyAlways, or once a
// subsequent Sync has returned under PolicyBatch/PolicyNone. On open,
// an incomplete or damaged record at the very tail of the *last*
// segment is a torn write from a crash and is truncated away; damage
// anywhere else — a sealed segment, or a record the index attests was
// complete — is corruption and fails loudly with ErrCorrupt. The log
// never silently drops state it previously reported durable.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"achilles/internal/obs"
)

// Policy selects when appends are flushed to stable storage.
type Policy uint8

const (
	// PolicyBatch (the default) fsyncs when either BatchRecords
	// appends or BatchInterval have accumulated since the last flush —
	// the group-commit strategy of most production logs.
	PolicyBatch Policy = iota
	// PolicyAlways fsyncs after every append.
	PolicyAlways
	// PolicyNone never fsyncs on the append path (Close and explicit
	// Sync still flush). Crash durability is whatever the OS got
	// around to writing back.
	PolicyNone
)

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "batch", "":
		return PolicyBatch, nil
	case "always":
		return PolicyAlways, nil
	case "none":
		return PolicyNone, nil
	}
	return PolicyBatch, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|none)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNone:
		return "none"
	default:
		return "batch"
	}
}

// ErrCorrupt marks damage to records the log had reported durable:
// a sealed segment that no longer parses, a bit-flipped interior
// record, index/segment disagreement, or a gap in the segment chain.
// It is deliberately not recoverable by truncation — the caller must
// discard the directory and rebuild from peers.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrInjectedCrash is returned by Append after a fault injector armed
// a mid-append crash: part of the frame hit the disk and the log shut
// itself down, exactly as if the process had been killed mid-write.
var ErrInjectedCrash = errors.New("wal: injected crash during append")

const (
	indexName         = "wal-index.json"
	segPrefix         = "seg-"
	segSuffix         = ".wal"
	defaultSegBytes   = 4 << 20
	defaultBatchRecs  = 64
	defaultBatchIntvl = 2 * time.Millisecond
)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if absent.
	Dir string
	// Policy is the fsync policy (default PolicyBatch).
	Policy Policy
	// SegmentBytes rotates the active segment once it would exceed
	// this size (default 4 MiB).
	SegmentBytes int64
	// BatchRecords and BatchInterval tune PolicyBatch (defaults 64
	// records / 2 ms).
	BatchRecords  int
	BatchInterval time.Duration
	// Obs, if set, registers wal_* metrics (segment count, size,
	// fsync latency histogram, torn truncations, index rebuilds).
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegBytes
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = defaultBatchRecs
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = defaultBatchIntvl
	}
}

// OpenInfo reports what Open found and repaired.
type OpenInfo struct {
	// Records is the number of intact records recovered.
	Records uint64
	// TornBytes is how many trailing bytes were truncated from the
	// last segment as a torn write (0 on a clean open).
	TornBytes int64
	// IndexRebuilt is set when the sidecar index was missing or
	// unreadable and record counts were rebuilt by scanning.
	IndexRebuilt bool
	// Segments is the number of live segment files.
	Segments int
}

// segment describes one on-disk segment file. Record sequence numbers
// are 1-based and implicit: segment s holds seqs [s.first,
// s.first+records).
type segment struct {
	file    string // base name
	first   uint64
	records int
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func segFirst(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	return v, err == nil
}

// indexDoc is the sidecar index: per-sealed-segment record counts,
// written atomically (tmp+rename) at every rotation. The counts are a
// durable *lower bound* — the last segment keeps growing after its
// entry is written — and let Open distinguish "record never finished
// being written" (torn, safe to drop) from "record was complete and
// is now damaged" (corruption, fail loudly).
type indexDoc struct {
	Version  int        `json:"version"`
	Segments []indexSeg `json:"segments"`
}

type indexSeg struct {
	File    string `json:"file"`
	First   uint64 `json:"first"`
	Records int    `json:"records"`
}

// Log is a segmented append-only record log. All methods are safe for
// concurrent use.
type Log struct {
	mu   sync.Mutex
	opts Options
	dir  string

	segs       []segment // sealed
	active     segment
	f          *os.File
	activeSize int64
	nextSeq    uint64 // seq the next Append gets
	// activeAttested is the active segment's record count the index
	// vouches for: only what was synced when the index was written
	// (creation, open, clean close). Pruning rewrites the index without
	// a sync, so it must not raise this.
	activeAttested int

	pending   int // appends not yet fsynced (PolicyBatch)
	lastFlush time.Time

	killFrac float64 // armed mid-append crash; <0 disarmed
	dead     error   // set once the log is unusable

	info OpenInfo
	m    walMetrics
}

type walMetrics struct {
	appends     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	fsyncDur    *obs.Histogram
	tornTruncs  *obs.Counter
	idxRebuilds *obs.Counter
}

// Open opens (or creates) the log in opts.Dir, repairing a torn tail
// and verifying every previously-sealed record. It returns ErrCorrupt
// if durable records are damaged.
func Open(opts Options) (*Log, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, dir: opts.Dir, killFrac: -1, lastFlush: time.Now()}
	l.initMetrics(opts.Obs)

	idx, idxOK, idxPresent := readIndex(opts.Dir)
	names, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		// Fresh log.
		l.nextSeq = 1
		l.active = segment{file: segName(1), first: 1}
		if l.f, err = l.createSegment(l.active.file); err != nil {
			return nil, err
		}
		l.info.Segments = 1
		return l, nil
	}
	if idxPresent && !idxOK {
		l.info.IndexRebuilt = true
		l.m.idxRebuilds.Inc()
	} else if !idxPresent && len(names) > 1 {
		// A single-segment log never wrote an index; with sealed
		// segments on disk a missing index means it was deleted.
		l.info.IndexRebuilt = true
		l.m.idxRebuilds.Inc()
	}
	indexed := make(map[string]int)
	if idxOK {
		for _, s := range idx.Segments {
			indexed[s.File] = s.Records
		}
	}

	var prevEnd uint64 // first seq after the previous segment
	for i, name := range names {
		first, ok := segFirst(name)
		if !ok {
			return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
		}
		if i == 0 {
			prevEnd = first
		} else if first != prevEnd {
			return nil, fmt.Errorf("%w: segment chain gap: %s starts at seq %d, want %d",
				ErrCorrupt, name, first, prevEnd)
		}
		path := filepath.Join(opts.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		attested := -1
		if n, ok := indexed[name]; ok {
			attested = n
		}
		last := i == len(names)-1
		recs, valid, torn, err := scanSegment(data, attested, last)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if torn > 0 {
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			l.info.TornBytes = torn
			l.m.tornTruncs.Inc()
		}
		seg := segment{file: name, first: first, records: recs}
		if last {
			l.active = seg
			l.activeSize = valid
			l.activeAttested = max(attested, 0)
		} else {
			l.segs = append(l.segs, seg)
		}
		prevEnd = first + uint64(recs)
		l.info.Records += uint64(recs)
	}
	l.nextSeq = prevEnd
	l.info.Segments = len(names)

	l.f, err = os.OpenFile(filepath.Join(opts.Dir, l.active.file), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if l.info.TornBytes > 0 {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	if l.info.IndexRebuilt || !idxPresent {
		l.activeAttested = l.active.records
		if err := l.writeIndexLocked(); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	return l, nil
}

// scanSegment walks data and returns how many intact records it holds
// and the byte length of that valid prefix. attested is the record
// count the index guarantees durable for this segment (-1 if
// unknown); last marks the log's final segment, the only place a torn
// tail is legal. torn > 0 means the caller should truncate the file
// to valid bytes.
func scanSegment(data []byte, attested int, last bool) (records int, valid int64, torn int64, err error) {
	off := 0
	n := 0
	for off < len(data) {
		_, consumed, derr := decodeRecord(data[off:])
		if derr == nil {
			off += consumed
			n++
			continue
		}
		// Damage at offset off, after n clean records.
		if !last {
			return n, int64(off), 0, fmt.Errorf("%w: sealed segment damaged at offset %d after %d records (%v)",
				ErrCorrupt, off, n, derr)
		}
		if attested >= 0 && n < attested {
			return n, int64(off), 0, fmt.Errorf("%w: record %d of %d attested durable is damaged at offset %d (%v)",
				ErrCorrupt, n+1, attested, off, derr)
		}
		// A checksum-damaged record of known extent followed by a
		// record that still parses is an interior bit flip, not a torn
		// write: a crash tears only the final frame.
		if derr == errCRC && consumed > 0 && off+consumed < len(data) {
			if _, _, nerr := decodeRecord(data[off+consumed:]); nerr == nil {
				return n, int64(off), 0, fmt.Errorf("%w: interior record damaged at offset %d after %d records",
					ErrCorrupt, off, n)
			}
		}
		return n, int64(off), int64(len(data) - off), nil
	}
	return n, int64(off), 0, nil
}

func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range ents {
		if _, ok := segFirst(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// readIndex returns the parsed index, whether it parsed, and whether
// the file existed at all.
func readIndex(dir string) (indexDoc, bool, bool) {
	var idx indexDoc
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return idx, false, false
	}
	if json.Unmarshal(data, &idx) != nil {
		return idx, false, true
	}
	return idx, true, true
}

func (l *Log) writeIndexLocked() error {
	doc := indexDoc{Version: 1, Segments: make([]indexSeg, 0, len(l.segs)+1)}
	for _, s := range l.segs {
		doc.Segments = append(doc.Segments, indexSeg{File: s.file, First: s.first, Records: s.records})
	}
	// The active segment keeps growing; its entry is a lower bound.
	doc.Segments = append(doc.Segments, indexSeg{File: l.active.file, First: l.active.first, Records: l.activeAttested})
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(l.dir, indexName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, indexName)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(l.dir)
}

func (l *Log) createSegment(name string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Append writes one record and returns its sequence number (1-based).
// Durability on return depends on the fsync policy.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return 0, l.dead
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	frame := appendRecord(nil, payload)
	if l.activeSize > 0 && l.activeSize+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.dead = err
			return 0, err
		}
	}
	if l.killFrac >= 0 {
		return 0, l.injectCrashLocked(frame)
	}
	if _, err := l.f.Write(frame); err != nil {
		l.dead = fmt.Errorf("wal: %w", err)
		return 0, l.dead
	}
	seq := l.nextSeq
	l.nextSeq++
	l.active.records++
	l.activeSize += int64(len(frame))
	l.pending++
	l.m.appends.Inc()
	l.m.bytes.Add(uint64(len(frame)))

	switch l.opts.Policy {
	case PolicyAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case PolicyBatch:
		if l.pending >= l.opts.BatchRecords || time.Since(l.lastFlush) >= l.opts.BatchInterval {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// injectCrashLocked persists a deliberately-truncated frame and kills
// the log, emulating a process murdered mid-write.
func (l *Log) injectCrashLocked(frame []byte) error {
	n := int(float64(len(frame)) * l.killFrac)
	if n >= len(frame) {
		n = len(frame) - 1
	}
	if n > 0 {
		l.f.Write(frame[:n])
	}
	l.f.Sync() // make the torn bytes durable so reopen must repair them
	l.killFrac = -1
	l.dead = ErrInjectedCrash
	return l.dead
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.dead = fmt.Errorf("wal: %w", err)
		return l.dead
	}
	l.pending = 0
	l.lastFlush = time.Now()
	l.m.fsyncs.Inc()
	l.m.fsyncDur.Observe(time.Since(start).Seconds())
	return nil
}

// Sync flushes all appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return l.dead
	}
	if l.pending == 0 && l.opts.Policy != PolicyNone {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = append(l.segs, l.active)
	name := segName(l.nextSeq)
	f, err := l.createSegment(name)
	if err != nil {
		return err
	}
	l.f = f
	l.active = segment{file: name, first: l.nextSeq}
	l.activeSize = 0
	l.activeAttested = 0
	return l.writeIndexLocked()
}

// Replay calls fn for every record with sequence number >= from, in
// order. It must not run concurrently with Append (it is a boot and
// bench path); fn errors abort the replay.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	all := append(append([]segment(nil), l.segs...), l.active)
	for _, s := range all {
		end := s.first + uint64(s.records)
		if end <= from || s.records == 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, s.file))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		off := 0
		for i := 0; i < s.records; i++ {
			payload, consumed, derr := decodeRecord(data[off:])
			if derr != nil {
				return fmt.Errorf("%w: %s record %d unreadable on replay (%v)", ErrCorrupt, s.file, i+1, derr)
			}
			seq := s.first + uint64(i)
			if seq >= from {
				if err := fn(seq, payload); err != nil {
					return err
				}
			}
			off += consumed
		}
	}
	return nil
}

// TruncateBefore deletes sealed segments whose records all precede
// keep (exclusive). The active segment is never deleted.
func (l *Log) TruncateBefore(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return l.dead
	}
	kept := l.segs[:0]
	changed := false
	for _, s := range l.segs {
		if s.first+uint64(s.records) <= keep {
			if err := os.Remove(filepath.Join(l.dir, s.file)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: %w", err)
			}
			changed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if !changed {
		return nil
	}
	return l.writeIndexLocked()
}

// Close flushes and closes the log. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		if l.f != nil {
			l.f.Close()
		}
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	if err == nil {
		l.activeAttested = l.active.records
		err = l.writeIndexLocked()
	}
	l.dead = errors.New("wal: log closed")
	return err
}

// Abort drops the log without flushing or updating the index — the
// in-process equivalent of kill -9, used by crash tests. Unsynced
// appends may or may not survive; the index keeps whatever counts the
// last rotation made durable.
func (l *Log) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
	}
	if l.dead == nil {
		l.dead = errors.New("wal: log aborted")
	}
}

// LastSeq returns the sequence number of the most recent append (0 if
// the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// SizeBytes returns the byte size of all live segments' valid data.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		if fi, err := os.Stat(filepath.Join(l.dir, s.file)); err == nil {
			n += fi.Size()
		}
	}
	return n + l.activeSize
}

// Info reports what Open found and repaired.
func (l *Log) Info() OpenInfo { return l.info }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) initMetrics(reg *obs.Registry) {
	l.m = walMetrics{
		appends: reg.Counter("wal_appends_total", "Records appended to the WAL."),
		bytes:   reg.Counter("wal_appended_bytes_total", "Framed bytes appended to the WAL."),
		fsyncs:  reg.Counter("wal_fsyncs_total", "fsync calls issued by the WAL."),
		fsyncDur: reg.Histogram("wal_fsync_seconds",
			"Latency of WAL fsync calls.", obs.DefFsyncBuckets),
		tornTruncs: reg.Counter("wal_torn_truncations_total",
			"Torn tails truncated from the last segment on open."),
		idxRebuilds: reg.Counter("wal_index_rebuilds_total",
			"Segment index rebuilds forced by a missing or unreadable index."),
	}
	if reg == nil {
		return
	}
	reg.Func("wal_segments", "Live WAL segment files.", obs.KindGauge, func() []obs.Sample {
		return []obs.Sample{{Value: float64(l.Segments())}}
	})
	reg.Func("wal_size_bytes", "Bytes of valid data across WAL segments.", obs.KindGauge, func() []obs.Sample {
		return []obs.Sample{{Value: float64(l.SizeBytes())}}
	})
	reg.Func("wal_last_seq", "Sequence number of the newest WAL record.", obs.KindGauge, func() []obs.Sample {
		return []obs.Sample{{Value: float64(l.LastSeq())}}
	})
}
