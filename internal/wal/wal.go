// Package wal implements the durable tier's write-ahead log: an
// append-only, CRC-checksummed, segment-rotated record log with periodic
// snapshots layered on top. The DCWS server logs every durable state
// change (document put/delete, co-op admission/eviction, migration
// accept/release, replica-set changes, revocations) and periodically
// snapshots its full state; after a crash it reloads the snapshot and
// replays the records appended since, turning the paper's §4.5
// crash-*revocation* story into crash-*recovery*.
//
// On-disk layout, inside one directory:
//
//	wal-<firstLSN>.log   segments of length-prefixed, CRC-framed records
//	snap-<lsn>.db        state snapshots; <lsn> is the last record covered
//
// Record framing is [len u32][crc u32][type u8 | payload...] with the CRC
// (Castagnoli) taken over the type byte and payload. A torn tail — the
// partial record a crash mid-write leaves behind — fails its CRC or length
// check and is truncated away on the next Open; everything before it
// replays normally.
//
// Appends reach the kernel in one write(2) per record, so a killed
// process (kill -9) loses nothing that Append returned for; the fsync
// policy only governs durability across an operating-system crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on a background ticker every
	// Options.SyncInterval — bounded loss on OS crash, no fsync on the
	// append path.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before Append returns, with group commit:
	// concurrent appenders share one fsync.
	SyncAlways
	// SyncNone never fsyncs; the kernel flushes at its leisure. Process
	// crashes still lose nothing (records are written straight through),
	// only an OS crash can.
	SyncNone
)

// ParseSyncPolicy maps the Params.WALSync strings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncInterval, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

// String returns the policy's Params.WALSync spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Options configures a log.
type Options struct {
	// Dir is the directory holding segments and snapshots; created if
	// missing.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 16 MiB).
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncInterval paces the background fsync under SyncInterval
	// (default 100 ms).
	SyncInterval time.Duration
	// Logger receives recovery notices (truncated tails, skipped
	// snapshots); nil discards them.
	Logger *log.Logger
}

// Record is one replayed log entry.
type Record struct {
	// LSN is the record's log sequence number, 1-based and contiguous.
	LSN uint64
	// Type is the caller-defined record type.
	Type uint8
	// Data is the payload. It is only valid during the replay callback.
	Data []byte
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Write and Append for a record over
// maxRecordBytes.
var ErrTooLarge = errors.New("wal: record too large")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	recHeaderSize       = 8        // u32 length + u32 crc
	maxRecordBytes      = 64 << 20 // one record's type byte and payload
	maxKeptBufBytes     = 1 << 20  // Write keeps its encode buffer up to this
	defaultSegmentBytes = 16 << 20
	defaultSyncInterval = 100 * time.Millisecond
	segPrefix           = "wal-"
	segSuffix           = ".log"
	snapPrefix          = "snap-"
	snapSuffix          = ".db"
)

// segment is one on-disk log file.
type segment struct {
	path  string
	first uint64 // LSN of its first record
	count uint64 // records it holds (tail segment: maintained live)
}

// Log is an append-only record log with snapshot support. Append, Write,
// Commit, Sync, and WriteSnapshot are safe for concurrent use.
type Log struct {
	opts   Options
	logf   *log.Logger
	dir    string
	closed atomic.Bool

	mu       sync.Mutex // guards the active file, segment list, rotation
	active   *os.File
	activeSz int64
	segments []segment // ordered by first LSN; last is the active one
	buf      []byte    // reusable append encoding buffer

	lsn     atomic.Uint64 // last appended LSN
	snapLSN atomic.Uint64 // LSN covered by the newest valid snapshot
	snap    []byte        // newest snapshot payload (loaded at Open)
	snapMu  sync.Mutex    // serializes WriteSnapshot

	// group-commit state
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool
	synced   uint64 // highest LSN known durable
	syncErr  error

	stopSync chan struct{}
	syncWG   sync.WaitGroup

	appends     atomic.Int64
	appendBytes atomic.Int64
	syncs       atomic.Int64
	snapshots   atomic.Int64
	truncations atomic.Int64
}

// Open scans dir, loads the newest valid snapshot, verifies every segment
// record (truncating at the first torn or corrupt record and discarding any
// later segments), and returns a log positioned to append after the last
// good record.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	logf := opts.Logger
	if logf == nil {
		logf = log.New(io.Discard, "", 0)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{opts: opts, logf: logf, dir: opts.Dir, stopSync: make(chan struct{})}
	l.syncCond = sync.NewCond(&l.syncMu)
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	if err := l.openTail(); err != nil {
		return nil, err
	}
	l.synced = l.lsn.Load()
	if opts.Sync == SyncInterval {
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// loadSnapshot finds the newest snap-*.db whose CRC validates, keeping its
// payload for SnapshotData. Invalid snapshots are skipped (and logged) in
// favor of older ones.
func (l *Log) loadSnapshot() error {
	names, err := filepath.Glob(filepath.Join(l.dir, snapPrefix+"*"+snapSuffix))
	if err != nil {
		return err
	}
	type snapFile struct {
		path string
		lsn  uint64
	}
	var snaps []snapFile
	for _, p := range names {
		base := filepath.Base(p)
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, snapPrefix), snapSuffix), 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapFile{p, lsn})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn > snaps[j].lsn })
	for _, sf := range snaps {
		data, err := os.ReadFile(sf.path)
		if err != nil || len(data) < recHeaderSize {
			l.logf.Printf("wal: skipping unreadable snapshot %s", sf.path)
			continue
		}
		want := binary.LittleEndian.Uint32(data[4:8])
		payload := data[recHeaderSize:]
		if binary.LittleEndian.Uint32(data[0:4]) != uint32(len(payload)) ||
			crc32.Checksum(payload, castagnoli) != want {
			l.logf.Printf("wal: skipping corrupt snapshot %s", sf.path)
			continue
		}
		l.snap = payload
		l.snapLSN.Store(sf.lsn)
		return nil
	}
	return nil
}

// scanSegments orders the wal-*.log files, verifies their records, and
// truncates at the first corruption: the bad record and everything after
// it — including whole later segments — is removed, because records after
// a torn write have no reliable framing.
func (l *Log) scanSegments() error {
	names, err := filepath.Glob(filepath.Join(l.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return err
	}
	var segs []segment
	for _, p := range names {
		base := filepath.Base(p)
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: p, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := range segs {
		count, goodBytes, clean, err := verifySegment(segs[i].path)
		if err != nil {
			return err
		}
		segs[i].count = count
		if !clean {
			l.truncations.Add(1)
			l.logf.Printf("wal: truncating %s at byte %d (first bad record)", segs[i].path, goodBytes)
			if err := os.Truncate(segs[i].path, goodBytes); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			for _, later := range segs[i+1:] {
				l.logf.Printf("wal: dropping segment %s after torn write", later.path)
				os.Remove(later.path)
			}
			segs = segs[:i+1]
			break
		}
	}
	// Drop empty non-tail segments a crash between rotate and first append
	// may leave; an empty tail is reused as-is.
	l.segments = segs
	last := uint64(0)
	for _, s := range l.segments {
		if n := s.first + s.count; n > 0 && n-1 > last {
			last = n - 1
		}
	}
	if snap := l.snapLSN.Load(); last < snap {
		last = snap
	}
	l.lsn.Store(last)
	return nil
}

// verifySegment walks one segment, returning how many whole valid records
// it holds, the byte offset after the last good one, and whether the file
// ended cleanly.
func verifySegment(path string) (count uint64, goodBytes int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	var hdr [recHeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return count, goodBytes, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecordBytes {
			return count, goodBytes, false, nil
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if _, err := io.ReadFull(f, body); err != nil {
			return count, goodBytes, false, nil
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return count, goodBytes, false, nil
		}
		count++
		goodBytes += int64(recHeaderSize + int64(n))
	}
}

// openTail opens the last segment for appending, creating the first
// segment when the directory is empty.
func (l *Log) openTail() error {
	if len(l.segments) == 0 {
		return l.newSegmentLocked(l.lsn.Load() + 1)
	}
	tail := &l.segments[len(l.segments)-1]
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeSz = info.Size()
	return nil
}

// newSegmentLocked creates and activates a fresh segment whose first
// record will carry the given LSN. l.mu must be held (or the log not yet
// shared).
func (l *Log) newSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.activeSz = 0
	l.segments = append(l.segments, segment{path: path, first: first})
	return nil
}

// Append adds one record and returns its LSN. The record reaches the
// kernel before Append returns; under SyncAlways it also reaches stable
// storage (group-committed with concurrent appenders). It is Write
// followed by Commit.
func (l *Log) Append(typ uint8, data []byte) (uint64, error) {
	lsn, err := l.Write(typ, data)
	if err != nil {
		return lsn, err
	}
	return lsn, l.Commit(lsn)
}

// Write adds one record and returns its LSN once the record has reached
// the kernel (one write(2)), whatever the sync policy: a caller that must
// order the record under a lock of its own writes it there and waits for
// Commit after releasing the lock, so that lock is not held across an
// fsync. A record larger than maxRecordBytes is refused with ErrTooLarge
// and nothing is written: the scan at Open would take it for a torn write.
func (l *Log) Write(typ uint8, data []byte) (uint64, error) {
	if l.closed.Load() {
		return 0, ErrClosed
	}
	n := 1 + len(data)
	if n > maxRecordBytes {
		return 0, ErrTooLarge
	}
	l.mu.Lock()
	if l.active == nil {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	need := recHeaderSize + n
	var b []byte
	if cap(l.buf) >= need {
		b = l.buf[:need]
	} else {
		b = make([]byte, need, min(need+need/2, max(need, maxKeptBufBytes)))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	b[recHeaderSize] = typ
	copy(b[recHeaderSize+1:], data)
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[recHeaderSize:], castagnoli))
	if _, err := l.active.Write(b); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if cap(b) <= maxKeptBufBytes {
		l.buf = b[:0] // a large record's buffer is not kept
	}
	l.activeSz += int64(need)
	lsn := l.lsn.Add(1)
	l.segments[len(l.segments)-1].count++
	if l.activeSz >= l.opts.SegmentBytes {
		if err := l.rotateLocked(lsn + 1); err != nil {
			l.mu.Unlock()
			return lsn, err
		}
	}
	l.mu.Unlock()
	l.appends.Add(1)
	l.appendBytes.Add(int64(need))
	return lsn, nil
}

// Commit makes the record at lsn as durable as the policy promises before
// it returns: under SyncAlways it waits for the group-committed fsync that
// covers lsn; under SyncInterval and SyncNone the record is already where
// they promise it (in the kernel) and Commit returns at once.
func (l *Log) Commit(lsn uint64) error {
	if l.opts.Sync != SyncAlways {
		return nil
	}
	return l.commitTo(lsn)
}

// rotateLocked fsyncs and closes the active segment and starts the next
// one. Records in closed segments are therefore always durable.
func (l *Log) rotateLocked(nextFirst uint64) error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	// The old handle is gone either way; never leave a closed file behind
	// as the active segment.
	l.active = nil
	return l.newSegmentLocked(nextFirst)
}

// commitTo blocks until every record at or below lsn is fsynced, sharing
// one fsync among all appenders waiting when it runs (group commit).
func (l *Log) commitTo(lsn uint64) error {
	l.syncMu.Lock()
	for l.synced < lsn && l.syncErr == nil {
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()
		target := l.lsn.Load()
		err := l.fsyncActive()
		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else if target > l.synced {
			l.synced = target
		}
		l.syncCond.Broadcast()
	}
	err := l.syncErr
	l.syncMu.Unlock()
	return err
}

// fsyncActive fsyncs the active segment file.
func (l *Log) fsyncActive() error {
	l.mu.Lock()
	f := l.active
	l.mu.Unlock()
	if f == nil {
		return ErrClosed
	}
	l.syncs.Add(1)
	return f.Sync()
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	if l.closed.Load() {
		return ErrClosed
	}
	return l.commitTo(l.lsn.Load())
}

// syncLoop is the SyncInterval background fsyncer.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			if l.lsn.Load() > l.syncedLSN() {
				l.Sync()
			}
		}
	}
}

func (l *Log) syncedLSN() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.synced
}

// SnapshotData returns the newest valid snapshot payload and the LSN it
// covers; ok is false when no snapshot exists.
func (l *Log) SnapshotData() (data []byte, lsn uint64, ok bool) {
	if l.snap == nil {
		return nil, 0, false
	}
	return l.snap, l.snapLSN.Load(), true
}

// Replay invokes fn for every record appended after the newest snapshot,
// in LSN order. The record's Data slice is reused between calls. Replay
// must run before the first Append.
func (l *Log) Replay(fn func(Record) error) error {
	after := l.snapLSN.Load()
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	var buf []byte
	for _, seg := range segs {
		if seg.count > 0 && seg.first+seg.count-1 <= after {
			continue // entirely covered by the snapshot
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return err
		}
		lsn := seg.first - 1
		var hdr [recHeaderSize]byte
		for {
			if _, err := io.ReadFull(f, hdr[:]); err != nil {
				break // scanSegments already truncated torn tails
			}
			n := binary.LittleEndian.Uint32(hdr[0:4])
			if n == 0 || n > maxRecordBytes {
				break
			}
			if uint32(cap(buf)) < n {
				buf = make([]byte, n)
			}
			body := buf[:n]
			if _, err := io.ReadFull(f, body); err != nil {
				break
			}
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
				break
			}
			lsn++
			if lsn <= after {
				continue
			}
			if err := fn(Record{LSN: lsn, Type: body[0], Data: body[1:]}); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// WriteSnapshot atomically persists a state snapshot covering every record
// up to and including LSN covered. The caller reads covered (LSN) before
// it captures the state, so every record at or below it is reflected in
// data; records appended while the state was being captured lie above it,
// stay in the log and are replayed on top of the snapshot, which is why
// each record must be an idempotent set of the state it names. The payload
// is written to a temp file, fsynced, renamed into place, and the
// directory fsynced; only then are the segments wholly at or below covered
// and the older snapshot removed. A crash at any point leaves either the
// old snapshot or the new one. Concurrent calls are serialized.
func (l *Log) WriteSnapshot(covered uint64, data []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	// Rotate first so every record the snapshot covers sits in a closed
	// (durable) segment.
	l.mu.Lock()
	if l.active == nil {
		l.mu.Unlock()
		return ErrClosed
	}
	lsn := l.lsn.Load()
	if covered > lsn {
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot covers LSN %d beyond the last appended %d", covered, lsn)
	}
	if covered < l.snapLSN.Load() {
		l.mu.Unlock()
		return nil // a newer snapshot already covers more
	}
	// An empty tail already starts at lsn+1 (its would-be successor has
	// the same name), so only rotate when it holds records.
	if l.segments[len(l.segments)-1].count > 0 {
		if err := l.rotateLocked(lsn + 1); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	// Closed segments are ordered by LSN: the obsolete ones are a prefix.
	n := 0
	for _, seg := range l.segments[:len(l.segments)-1] {
		if seg.first+seg.count > covered+1 {
			break
		}
		n++
	}
	obsolete := append([]segment(nil), l.segments[:n]...)
	l.segments = append([]segment(nil), l.segments[n:]...)
	l.mu.Unlock()

	framed := make([]byte, recHeaderSize+len(data))
	binary.LittleEndian.PutUint32(framed[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(framed[4:8], crc32.Checksum(data, castagnoli))
	copy(framed[recHeaderSize:], data)
	final := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, covered, snapSuffix))
	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(l.dir)
	prevSnap := l.snapLSN.Load()
	l.snapLSN.Store(covered)
	l.snapshots.Add(1)
	// Prune: segments wholly covered by the new snapshot and the previous
	// snapshot file.
	for _, seg := range obsolete {
		os.Remove(seg.path)
	}
	if prevSnap != covered {
		os.Remove(filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, prevSnap, snapSuffix)))
	}
	return nil
}

// Close fsyncs and closes the log.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.stopSync)
	l.syncWG.Wait()
	l.commitTo(l.lsn.Load())
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// Abandon closes the log without syncing — the crash-simulation hook for
// tests: whatever reached the kernel survives, nothing else is finalized.
func (l *Log) Abandon() {
	if l.closed.Swap(true) {
		return
	}
	close(l.stopSync)
	l.syncWG.Wait()
	l.mu.Lock()
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.mu.Unlock()
}

// LSN returns the last appended record's sequence number.
func (l *Log) LSN() uint64 { return l.lsn.Load() }

// SnapshotLSN returns the LSN covered by the newest snapshot (0: none).
func (l *Log) SnapshotLSN() uint64 { return l.snapLSN.Load() }

// Segments reports how many log segments exist.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Appends reports records appended since Open.
func (l *Log) Appends() int64 { return l.appends.Load() }

// AppendedBytes reports bytes appended since Open, framing included.
func (l *Log) AppendedBytes() int64 { return l.appendBytes.Load() }

// Syncs reports fsync calls issued on the append path or sync loop.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Snapshots reports snapshots written since Open.
func (l *Log) Snapshots() int64 { return l.snapshots.Load() }

// Truncations reports torn tails removed at Open.
func (l *Log) Truncations() int64 { return l.truncations.Load() }

// SyncPolicy reports the configured fsync policy.
func (l *Log) SyncPolicy() SyncPolicy { return l.opts.Sync }

// DecodeRecord validates one framed record as stored on disk and returns
// its type and payload — the unit the fuzz harness drives.
func DecodeRecord(b []byte) (typ uint8, data []byte, rest []byte, err error) {
	if len(b) < recHeaderSize+1 {
		return 0, nil, nil, errors.New("wal: short record")
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordBytes || int64(len(b)-recHeaderSize) < int64(n) {
		return 0, nil, nil, errors.New("wal: bad record length")
	}
	body := b[recHeaderSize : recHeaderSize+int(n)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, nil, errors.New("wal: bad record crc")
	}
	return body[0], body[1:], b[recHeaderSize+int(n):], nil
}

// EncodeRecord frames a record exactly as Append writes it (test/fuzz
// helper).
func EncodeRecord(typ uint8, data []byte) []byte {
	n := 1 + len(data)
	b := make([]byte, recHeaderSize+n)
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	b[recHeaderSize] = typ
	copy(b[recHeaderSize+1:], data)
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[recHeaderSize:], castagnoli))
	return b
}

// syncDir best-effort fsyncs a directory so a just-renamed file's
// directory entry is durable. Some platforms cannot fsync directories;
// those errors are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
