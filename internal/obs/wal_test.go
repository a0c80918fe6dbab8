package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// walEvent builds a minimal admit-shaped event for WAL tests.
func walEvent(tenant int) Event {
	e := NewEvent(KindAdmit)
	e.Tenant = tenant
	e.Path = "regular"
	return e
}

func TestWALGroupCommit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 5; i++ {
		w.Record(walEvent(i))
	}
	if got := w.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := w.Synced(); got != 0 {
		t.Fatalf("Synced = %d before Sync, want 0", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Synced(); got != 5 {
		t.Fatalf("Synced = %d, want 5", got)
	}
	events, torn, err := ReadWAL(&buf)
	if err != nil || torn {
		t.Fatalf("ReadWAL: events=%d torn=%v err=%v", len(events), torn, err)
	}
	if len(events) != 5 {
		t.Fatalf("read %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Tenant != i || e.Kind != KindAdmit {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errors.New("disk full")
	}
	f.written += len(p)
	return len(p), nil
}

func TestWALStickyError(t *testing.T) {
	w := NewWAL(&failAfter{n: 64})
	// Overflow the 1 MiB staging buffer so the failing writer is reached.
	big := walEvent(1)
	big.Reason = strings.Repeat("x", walBufferSize)
	w.Record(big)
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a full disk succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err is nil after failed sync")
	}
	// Sticky: later records are dropped and later syncs keep failing.
	before := w.Count()
	w.Record(walEvent(2))
	if w.Count() != before {
		t.Fatal("Record accepted an event after a sticky error")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync cleared a sticky error")
	}
}

// syncCounter counts Sync calls to prove group commit batches them.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error {
	s.syncs++
	return nil
}

func TestWALSyncsUnderlyingWriter(t *testing.T) {
	var sc syncCounter
	w := NewWAL(&sc)
	for i := 0; i < 100; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 1 {
		t.Fatalf("underlying Sync called %d times for one group commit", sc.syncs)
	}
	events, _, err := ReadWAL(&sc.Buffer)
	if err != nil || len(events) != 100 {
		t.Fatalf("read back %d events, err=%v", len(events), err)
	}
}

func TestWALConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Record(walEvent(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	events, torn, err := ReadWAL(&buf)
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	if len(events) != 8*200 {
		t.Fatalf("read %d events, want %d", len(events), 8*200)
	}
}

func TestReadWALTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: truncate the log inside the last record.
	data := buf.Bytes()
	data = data[:len(data)-10]
	events, torn, err := ReadWAL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("truncated tail not reported as torn")
	}
	if len(events) != 2 {
		t.Fatalf("recovered %d events from torn log, want 2", len(events))
	}
}

func TestReadWALCorruptionMidFile(t *testing.T) {
	log := `{"kind":"admit","tenant":1}
not json at all
{"kind":"admit","tenant":2}
`
	if _, _, err := ReadWAL(strings.NewReader(log)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestWALFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is sticky too: the file must not accept unlogged admissions.
	w.Record(walEvent(99))
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("Sync after Close = %v, want ErrWALClosed", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, torn, err := ReadWAL(f)
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	if len(events) != 10 {
		t.Fatalf("read %d events, want 10", len(events))
	}
	// Reopening appends rather than truncating.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Record(walEvent(10))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	events, _, err = ReadWAL(f2)
	if err != nil || len(events) != 11 {
		t.Fatalf("after append: %d events, err=%v", len(events), err)
	}
}

// TestReadWALOffsets: ends[i] is the exact size the file would have if
// truncated just past record i, so slicing the raw log at any offset
// yields a clean prefix of exactly i+1 events.
func TestReadWALOffsets(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	events, ends, torn, err := ReadWALOffsets(bytes.NewReader(whole))
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	if len(events) != 3 || len(ends) != 3 {
		t.Fatalf("got %d events, %d offsets, want 3/3", len(events), len(ends))
	}
	if ends[2] != int64(len(whole)) {
		t.Fatalf("final offset %d, file size %d", ends[2], len(whole))
	}
	for i, end := range ends {
		got, _, torn, err := ReadWALOffsets(bytes.NewReader(whole[:end]))
		if err != nil || torn || len(got) != i+1 {
			t.Fatalf("prefix to offset %d: %d events, torn=%v, err=%v (want %d)", end, len(got), torn, err, i+1)
		}
	}
}

// TestReadWALUnterminatedTail: the newline is part of the record, so a
// final line lacking one is torn even when the JSON itself is complete —
// its group commit never finished, so recovery must not trust it.
func TestReadWALUnterminatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	events, torn, err := ReadWAL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(events) != 2 {
		t.Fatalf("unterminated tail: %d events, torn=%v, want 2 events torn", len(events), torn)
	}
}

// TestTruncateWAL: the log is cut at the committed record boundary, so
// complete-but-uncommitted lines are removed along with any torn tail.
func TestTruncateWAL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		w.Record(walEvent(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	_, ends, _, err := ReadWALOffsets(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")

	// Truncating to the full size is a no-op.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := TruncateWAL(path, int64(len(whole))); err != nil || n != 0 {
		t.Fatalf("clean log: trimmed %d, err %v", n, err)
	}

	// Cutting at the second record's boundary drops the third complete
	// line, not just a partial tail.
	if n, err := TruncateWAL(path, ends[1]); err != nil || n != int64(len(whole))-ends[1] {
		t.Fatalf("trimmed %d, err %v, want %d", n, err, int64(len(whole))-ends[1])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, torn, err := ReadWAL(bytes.NewReader(data))
	if err != nil || torn || len(events) != 2 {
		t.Fatalf("after truncate: %d events, torn=%v, err=%v", len(events), torn, err)
	}

	// A file shorter than the claimed committed prefix is an error; a
	// missing file is fine only when nothing was committed.
	if _, err := TruncateWAL(path, int64(len(whole))+100); err == nil {
		t.Fatal("short file accepted")
	}
	absent := filepath.Join(t.TempDir(), "absent")
	if n, err := TruncateWAL(absent, 0); err != nil || n != 0 {
		t.Fatalf("missing log: trimmed %d, err %v", n, err)
	}
	if _, err := TruncateWAL(absent, 10); err == nil {
		t.Fatal("missing log with committed bytes accepted")
	}
}

// failingCloser rejects every write and counts closes, to prove Close
// stays idempotent when a sticky error predates it.
type failingCloser struct {
	closes int
}

func (f *failingCloser) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (f *failingCloser) Close() error              { f.closes++; return nil }

func TestWALCloseIdempotentAfterStickyError(t *testing.T) {
	fc := &failingCloser{}
	w := NewWAL(fc)
	w.Record(walEvent(1))
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a failing writer succeeded")
	}
	// First Close reports the sticky outcome and closes the writer once.
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sticky error")
	}
	if fc.closes != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", fc.closes)
	}
	// Second Close is a no-op: no re-flush, no double-close.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if fc.closes != 1 {
		t.Fatalf("underlying writer closed %d times after retry, want 1", fc.closes)
	}
}

// FuzzReadWALOffsets feeds arbitrary bytes to the log reader recovery
// runs at boot. It must never panic; on success every event has an end
// offset, the offsets strictly increase within the input, and the prefix
// cut at the last offset — what TruncateWAL keeps — reads back as the
// same events with no torn tail.
func FuzzReadWALOffsets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, ends, _, err := ReadWALOffsets(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(events) != len(ends) {
			t.Fatalf("%d events but %d end offsets", len(events), len(ends))
		}
		var prev int64
		for i, end := range ends {
			if end <= prev || end > int64(len(data)) {
				t.Fatalf("end offset %d = %d after %d, input %d bytes", i, end, prev, len(data))
			}
			prev = end
		}
		again, againEnds, torn, err := ReadWALOffsets(bytes.NewReader(data[:prev]))
		if err != nil || torn {
			t.Fatalf("committed prefix rereads with torn=%v err=%v", torn, err)
		}
		if !reflect.DeepEqual(again, events) || !reflect.DeepEqual(againEnds, ends) {
			t.Fatal("committed prefix rereads as different events")
		}
	})
}
