package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mut ...func(*Options)) *Log {
	t.Helper()
	opts := Options{Dir: dir, Sync: SyncNone}
	for _, m := range mut {
		m(&opts)
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(func(r Record) error {
		out = append(out, Record{LSN: r.LSN, Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(uint8(i%7+1), []byte(fmt.Sprintf("payload-%03d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir)
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Type != uint8(i%7+1) || string(r.Data) != fmt.Sprintf("payload-%03d", i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if l2.LSN() != 100 {
		t.Fatalf("LSN after reopen = %d, want 100", l2.LSN())
	}
}

func TestAppendAfterReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(1, []byte("a"))
	l.Append(1, []byte("b"))
	l.Close()

	l2 := openT(t, dir)
	lsn, err := l2.Append(2, []byte("c"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if lsn != 3 {
		t.Fatalf("lsn = %d, want 3", lsn)
	}
	recs := collect(t, l2)
	if len(recs) != 3 || recs[2].Type != 2 || string(recs[2].Data) != "c" {
		t.Fatalf("unexpected records: %+v", recs)
	}
	l2.Close()
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("Segments() = %d, want >= 2 after rotation", l.Segments())
	}
	l.Close()

	l2 := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d lsn = %d", i, r.LSN)
		}
	}
}

func TestSnapshotReplaySince(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for i := 0; i < 10; i++ {
		l.Append(1, []byte{byte(i)})
	}
	if err := l.WriteSnapshot(l.LSN(), []byte("state@10")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	for i := 10; i < 15; i++ {
		l.Append(2, []byte{byte(i)})
	}
	l.Close()

	l2 := openT(t, dir)
	defer l2.Close()
	data, lsn, ok := l2.SnapshotData()
	if !ok || string(data) != "state@10" || lsn != 10 {
		t.Fatalf("SnapshotData = %q, %d, %v", data, lsn, ok)
	}
	recs := collect(t, l2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records after snapshot, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(11+i) || r.Type != 2 || r.Data[0] != byte(10+i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

// TestSnapshotCoversOnlyWhatItCaptured: records appended between the
// moment a caller reads the LSN and captures its state, and the moment it
// hands the snapshot over, are not in the snapshot. They must survive: the
// snapshot covers the LSN read first, only segments wholly at or below it
// are pruned, and replay returns every record above it.
func TestSnapshotCoversOnlyWhatItCaptured(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	payload := bytes.Repeat([]byte("z"), 24)
	for i := 0; i < 10; i++ {
		l.Append(1, payload)
	}
	covered := l.LSN()
	for i := 10; i < 14; i++ {
		l.Append(2, []byte{byte(i)})
	}
	if err := l.WriteSnapshot(covered, []byte("state@10")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(covered+100, nil); err == nil {
		t.Fatal("WriteSnapshot accepted an LSN beyond the log")
	}
	l.Abandon()

	l2 := openT(t, dir)
	defer l2.Close()
	if _, lsn, ok := l2.SnapshotData(); !ok || lsn != covered {
		t.Fatalf("snapshot covers %d (ok=%v), want %d", lsn, ok, covered)
	}
	recs := collect(t, l2)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records above the snapshot, want 4: %+v", len(recs), recs)
	}
	for i, r := range recs {
		if r.LSN != covered+uint64(i)+1 || r.Type != 2 || r.Data[0] != byte(10+i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestSnapshotPrunesOldSegmentsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	payload := bytes.Repeat([]byte("y"), 48)
	for i := 0; i < 10; i++ {
		l.Append(1, payload)
	}
	if err := l.WriteSnapshot(l.LSN(), []byte("first")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(1, payload)
	}
	if err := l.WriteSnapshot(l.LSN(), []byte("second")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("segments on disk after snapshot = %d, want 1 (tail)", len(segs))
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", len(snaps))
	}
	l2 := openT(t, dir)
	defer l2.Close()
	data, lsn, ok := l2.SnapshotData()
	if !ok || string(data) != "second" || lsn != 20 {
		t.Fatalf("SnapshotData = %q, %d, %v; want second, 20", data, lsn, ok)
	}
	if recs := collect(t, l2); len(recs) != 0 {
		t.Fatalf("replayed %d records, want 0 after fresh snapshot", len(recs))
	}
}

// TestCorruptTailTruncation proves recovery truncates at the first bad CRC
// instead of failing the whole replay: records before the corruption
// survive, those at and after it are discarded, and the log appends
// cleanly afterwards.
func TestCorruptTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for i := 0; i < 8; i++ {
		l.Append(1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	l.Close()

	// Flip one payload byte in the 6th record (LSN 6), leaving 1-5 intact.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 5; i++ {
		off += recHeaderSize + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	raw[off+recHeaderSize+3] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir)
	if l2.Truncations() != 1 {
		t.Fatalf("Truncations = %d, want 1", l2.Truncations())
	}
	recs := collect(t, l2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5 before corruption", len(recs))
	}
	if string(recs[4].Data) != "rec-4" {
		t.Fatalf("last surviving record = %q", recs[4].Data)
	}
	if lsn, err := l2.Append(2, []byte("after")); err != nil || lsn != 6 {
		t.Fatalf("Append after truncation: lsn=%d err=%v, want 6", lsn, err)
	}
	l2.Close()

	l3 := openT(t, dir)
	defer l3.Close()
	recs = collect(t, l3)
	if len(recs) != 6 || string(recs[5].Data) != "after" {
		t.Fatalf("after re-append: %d records, last %q", len(recs), recs[len(recs)-1].Data)
	}
}

// TestCorruptTailDropsLaterSegments: a torn write in an earlier segment
// invalidates the LSN continuity of everything after it, so later segments
// are removed entirely.
func TestCorruptTailDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	payload := bytes.Repeat([]byte("z"), 48)
	for i := 0; i < 12; i++ {
		l.Append(1, payload)
	}
	if l.Segments() < 3 {
		t.Fatalf("need >= 3 segments, got %d", l.Segments())
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	raw, _ := os.ReadFile(segs[0])
	raw[len(raw)-1] ^= 0xff // corrupt first segment's last record
	os.WriteFile(segs[0], raw, 0o644)

	l2 := openT(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	defer l2.Close()
	if got := l2.Segments(); got != 1 {
		t.Fatalf("Segments after recovery = %d, want 1", got)
	}
	recs := collect(t, l2)
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d lsn = %d: LSN continuity broken", i, r.LSN)
		}
	}
}

// TestTornHeaderTruncation: a partial header (crash mid-frame) is detected
// by the short read, not the CRC.
func TestTornHeaderTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(1, []byte("whole"))
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	f, _ := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0x09, 0x00, 0x00}) // 3 bytes of a would-be header
	f.Close()

	l2 := openT(t, dir)
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 1 || string(recs[0].Data) != "whole" {
		t.Fatalf("records after torn header = %+v", recs)
	}
	if lsn, _ := l2.Append(1, []byte("next")); lsn != 2 {
		t.Fatalf("append after torn header: lsn = %d, want 2", lsn)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(1, []byte("a"))
	if err := l.WriteSnapshot(l.LSN(), []byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Plant a newer, corrupt snapshot.
	bad := make([]byte, recHeaderSize+4)
	binary.LittleEndian.PutUint32(bad[0:4], 4)
	binary.LittleEndian.PutUint32(bad[4:8], 0xdeadbeef)
	copy(bad[recHeaderSize:], "BAD!")
	os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, uint64(99), snapSuffix)), bad, 0o644)

	l2 := openT(t, dir)
	defer l2.Close()
	data, lsn, ok := l2.SnapshotData()
	if !ok || string(data) != "good" || lsn != 1 {
		t.Fatalf("SnapshotData = %q, %d, %v; want fallback to good snapshot", data, lsn, ok)
	}
}

func TestAbandonKeepsAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	for i := 0; i < 5; i++ {
		l.Append(1, []byte{byte(i)})
	}
	l.Abandon() // crash: no sync, no snapshot

	l2 := openT(t, dir)
	defer l2.Close()
	if recs := collect(t, l2); len(recs) != 5 {
		t.Fatalf("replayed %d records after Abandon, want 5", len(recs))
	}
}

func TestSyncAlwaysGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.Sync = SyncAlways })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := l.Append(1, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Appends() != 200 {
		t.Fatalf("Appends = %d, want 200", l.Appends())
	}
	// Group commit means far fewer fsyncs than appends under contention;
	// correctness bound: at least one, at most one per append.
	if s := l.Syncs(); s < 1 || s > 200 {
		t.Fatalf("Syncs = %d out of range", s)
	}
	l.Close()

	l2 := openT(t, dir)
	defer l2.Close()
	if recs := collect(t, l2); len(recs) != 200 {
		t.Fatalf("replayed %d, want 200", len(recs))
	}
}

func TestSyncIntervalLoopSyncs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) {
		o.Sync = SyncInterval
		o.SyncInterval = 5 * time.Millisecond
	})
	defer l.Close()
	l.Append(1, []byte("tick"))
	deadline := time.Now().Add(2 * time.Second)
	for l.Syncs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync loop never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentAppendSnapshotSoak hammers Append from several goroutines
// while snapshots rotate and prune underneath — the -race soak required by
// the issue. Every record appended after the final snapshot must survive.
func TestConcurrentAppendSnapshotSoak(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 4096 })
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // snapshotter
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.WriteSnapshot(l.LSN(), []byte(fmt.Sprintf("snap-%d", i))); err != nil {
				t.Errorf("WriteSnapshot: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(uint8(g+1), []byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	// Wait for the writers (not the snapshotter) to finish, then stop it.
	for l.Appends() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir)
	defer l2.Close()
	_, snapLSN, _ := l2.SnapshotData()
	recs := collect(t, l2)
	// Snapshot + replay must cover every appended LSN exactly once.
	if want := uint64(writers * perWriter); snapLSN+uint64(len(recs)) != want {
		t.Fatalf("snapshot covers %d + %d replayed != %d appended", snapLSN, len(recs), want)
	}
	for i, r := range recs {
		if r.LSN != snapLSN+uint64(i)+1 {
			t.Fatalf("replay gap at %d: lsn %d", i, r.LSN)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"", SyncInterval, false},
		{"none", SyncNone, false},
		{"NONE", SyncNone, false},
		{"fsync-maybe", SyncInterval, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v: %v, %v", p, back, err)
		}
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	b := EncodeRecord(7, []byte("hello"))
	typ, data, rest, err := DecodeRecord(append(b, 0xAA))
	if err != nil || typ != 7 || string(data) != "hello" || len(rest) != 1 {
		t.Fatalf("DecodeRecord = %d %q %v %v", typ, data, rest, err)
	}
	b[recHeaderSize+2] ^= 1
	if _, _, _, err := DecodeRecord(b); err == nil {
		t.Fatal("DecodeRecord accepted corrupt record")
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	l := openT(t, t.TempDir())
	l.Close()
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.WriteSnapshot(l.LSN(), nil); err != ErrClosed {
		t.Fatalf("WriteSnapshot after Close: %v, want ErrClosed", err)
	}
}

// TestAppendRefusesOversizedRecord: a record the scan at Open would take
// for a torn write is refused and writes nothing, so it cannot cost the
// records after it; a large record within the bound survives a crash
// without its encode buffer staying behind.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	if _, err := l.Append(1, make([]byte, maxRecordBytes)); err != ErrTooLarge {
		t.Fatalf("Append of a %d-byte record = %v, want ErrTooLarge", 1+maxRecordBytes, err)
	}
	if l.LSN() != 0 || l.AppendedBytes() != 0 {
		t.Fatalf("the refused record left LSN %d, %d bytes", l.LSN(), l.AppendedBytes())
	}
	large := bytes.Repeat([]byte{0xab}, 2*maxKeptBufBytes)
	for _, data := range [][]byte{[]byte("before"), large, []byte("after")} {
		if _, err := l.Append(2, data); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(l.buf); c > maxKeptBufBytes {
		t.Fatalf("Append kept a %d-byte buffer after a large record", c)
	}
	l.Abandon()

	l2 := openT(t, dir)
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 3 || string(recs[0].Data) != "before" || !bytes.Equal(recs[1].Data, large) || string(recs[2].Data) != "after" {
		t.Fatalf("replayed %d records, want before, the large one, after", len(recs))
	}
}
