package obs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// walDepart builds a departure event; the WAL writes it as a record on
// its own.
func walDepart(tenant int) Event {
	e := NewEvent(KindDepart)
	e.Tenant = tenant
	return e
}

// admissionEvents returns the events a CubeFit admission of tenant onto
// hosts emits, trace-only kinds included.
func admissionEvents(tenant int, load float64, clients int, hosts ...int) []Event {
	a := NewEvent(KindAttempt)
	a.Tenant, a.Size, a.Clients = tenant, load, clients
	evs := []Event{a}
	for r, h := range hosts {
		probe := NewEvent(KindStage1Probe)
		probe.Tenant, probe.Replica, probe.Probes = tenant, r, 3
		place := NewEvent(KindCubePlace)
		place.Tenant, place.Replica, place.Server, place.Size = tenant, r, h, load/float64(len(hosts))
		place.Digits = []int{r, 0}
		evs = append(evs, probe, place)
	}
	adv := NewEvent(KindCubeAdvance)
	adv.Counter = 1
	admit := NewEvent(KindAdmit)
	admit.Tenant, admit.Path = tenant, "regular"
	return append(evs, adv, admit)
}

// recordAdmission feeds rec the events of one admission.
func recordAdmission(rec Recorder, tenant int, load float64, clients int, hosts ...int) {
	for _, e := range admissionEvents(tenant, load, clients, hosts...) {
		rec.Record(e)
	}
}

// encodeOps is the canonical byte form of ops.
func encodeOps(ops []Op) []byte {
	var out []byte
	for _, op := range ops {
		out = appendOp(out, op)
	}
	return out
}

func TestWALGroupCommit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 5; i++ {
		recordAdmission(w, i, 0.1*float64(i+1), i, 2*i, 2*i+1)
	}
	if got := w.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := w.Synced(); got != 0 {
		t.Fatalf("Synced = %d before Sync, want 0", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes reached the writer before Sync", buf.Len())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Synced(); got != 5 {
		t.Fatalf("Synced = %d, want 5", got)
	}
	ops, _, torn, err := ReadWALOffsets(&buf)
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: ops=%d torn=%v err=%v", len(ops), torn, err)
	}
	if len(ops) != 5 {
		t.Fatalf("read %d ops, want 5", len(ops))
	}
	for i, op := range ops {
		want := Op{Kind: OpAdmit, Tenant: i, Load: 0.1 * float64(i+1), Clients: i, Servers: []int{2 * i, 2*i + 1}}
		if !reflect.DeepEqual(op, want) {
			t.Fatalf("op %d = %+v, want %+v", i, op, want)
		}
	}
}

// TestWALRecordFormat pins the record bytes for the three operations,
// including a first-stage fallback (replicas placed, rolled back, then
// re-placed by the cube) and a rejection that rolled back a partial
// placement: only the final hosts reach the log, and trace-only kinds
// write nothing.
func TestWALRecordFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	ev := func(kind Kind, tenant, replica, server int) Event {
		e := NewEvent(kind)
		e.Tenant, e.Replica, e.Server = tenant, replica, server
		return e
	}
	attempt := ev(KindAttempt, 1, Unset, Unset)
	attempt.Size, attempt.Clients = 0.25, 4
	w.Record(attempt)
	w.Record(ev(KindStage1Probe, 1, 0, 3))
	w.Record(ev(KindStage1Place, 1, 0, 3))
	w.Record(ev(KindStage1Probe, 1, 1, Unset))
	w.Record(ev(KindRollback, 1, Unset, Unset))
	w.Record(ev(KindBinOpen, Unset, Unset, 5))
	w.Record(ev(KindCubePlace, 1, 0, 5))
	w.Record(ev(KindCubePlace, 1, 1, 6))
	w.Record(ev(KindCubeAdvance, Unset, Unset, Unset))
	w.Record(ev(KindBinMature, Unset, Unset, 5))
	w.Record(ev(KindAdmit, 1, Unset, Unset))
	if buf.Len() != 0 || w.Count() != 1 {
		t.Fatalf("after one admission: %d bytes written, %d records", buf.Len(), w.Count())
	}
	reject := ev(KindAttempt, 2, Unset, Unset)
	reject.Size = 1.5
	w.Record(reject)
	w.Record(ev(KindPlace, 2, 0, 7))
	w.Record(ev(KindRollback, 2, Unset, Unset))
	w.Record(ev(KindReject, 2, Unset, Unset))
	w.Record(walDepart(1))
	w.Record(ev(KindBinRetire, Unset, Unset, 5))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	const want = "A 1 0.25 4 5 6\nR 2 1.5 0\nD 1\n"
	if got := buf.String(); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
	if w.Count() != 3 || w.Synced() != 3 {
		t.Fatalf("Count %d Synced %d, want 3/3", w.Count(), w.Synced())
	}
}

// TestWALFailsClosedOnBrokenAdmission: an event sequence the log cannot
// turn into a record makes it sticky-failed instead of writing a guess.
func TestWALFailsClosedOnBrokenAdmission(t *testing.T) {
	admit := NewEvent(KindAdmit)
	admit.Tenant = 1
	place := func(tenant, replica, server int) Event {
		e := NewEvent(KindCubePlace)
		e.Tenant, e.Replica, e.Server = tenant, replica, server
		return e
	}
	attempt := admissionEvents(1, 0.2, 0)[0]
	cases := map[string][]Event{
		"admit without attempt":    {admit},
		"place without attempt":    {place(1, 0, 0)},
		"admit of another tenant":  {admissionEvents(2, 0.2, 0)[0], admit},
		"replica left unplaced":    {attempt, place(1, 1, 4), admit},
		"admit placing nothing":    {attempt, admit},
		"place of another tenant":  {attempt, place(2, 0, 0)},
		"admit twice":              append(admissionEvents(1, 0.2, 0, 0, 1), admit),
		"replica index past bound": {attempt, place(1, maxReplicas+1, 0)},
	}
	for name, evs := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWAL(&buf)
			for _, e := range evs {
				w.Record(e)
			}
			if w.Err() == nil || !w.Failed() {
				t.Fatalf("log accepted the sequence: err=%v failed=%v", w.Err(), w.Failed())
			}
			if err := w.Sync(); err == nil {
				t.Fatal("Sync succeeded on a failed log")
			}
		})
	}
}

// TestWALRecordAllocs pins the encoder's steady state: recording a whole
// admission and a departure allocates nothing once the buffers are warm.
func TestWALRecordAllocs(t *testing.T) {
	w := NewWAL(io.Discard)
	evs := append(admissionEvents(7, 0.123456789, 12, 40, 41, 42), walDepart(7))
	allocs := testing.AllocsPerRun(200, func() {
		for _, e := range evs {
			w.Record(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per admission+departure, want 0", allocs)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
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
	for i := 0; w.Err() == nil && i < walBufferSize; i++ {
		w.Record(walDepart(i))
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a full disk succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err is nil after failed sync")
	}
	// Sticky: later records are dropped and later syncs keep failing.
	before := w.Count()
	w.Record(walDepart(-1))
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
		recordAdmission(w, i, 0.2, 0, i, i+1)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 1 {
		t.Fatalf("underlying Sync called %d times for one group commit", sc.syncs)
	}
	ops, _, _, err := ReadWALOffsets(&sc.Buffer)
	if err != nil || len(ops) != 100 {
		t.Fatalf("read back %d ops, err=%v", len(ops), err)
	}
}

// TestWALConcurrentRecord: records from concurrent writers never tear
// into each other. Departures stand alone; admissions must reach the log
// one at a time, which the controller's single placer guarantees.
func TestWALConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Record(walDepart(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	ops, _, torn, err := ReadWALOffsets(&buf)
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	if len(ops) != 8*200 {
		t.Fatalf("read %d ops, want %d", len(ops), 8*200)
	}
	seen := make(map[int]bool)
	for _, op := range ops {
		if op.Kind != OpDepart || seen[op.Tenant] {
			t.Fatalf("unexpected or repeated op %+v", op)
		}
		seen[op.Tenant] = true
	}
}

func TestReadWALTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		recordAdmission(w, i, 0.3, 2, 2*i, 2*i+1)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: truncate the log inside the last record.
	data := buf.Bytes()
	data = data[:len(data)-5]
	ops, _, torn, err := ReadWALOffsets(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("truncated tail not reported as torn")
	}
	if len(ops) != 2 {
		t.Fatalf("recovered %d ops from torn log, want 2", len(ops))
	}
}

func TestReadWALCorruptionMidFile(t *testing.T) {
	for _, log := range []string{
		"A 1 0.2 0 0 1\nnot a record\nD 1\n",
		"A 1 0.2 0 0 1\n\nD 1\n",               // blank line
		"A 1 0.2 0 0 1\nA 2 0.20 0 2 3\nD 1\n", // non-canonical load
		"A 1 0.2 0 0 1\nA 02 0.2 0 2 3\nD 1\n", // leading zero
		"A 1 0.2 0 0 1\nA 2 0.2 0 2  3\nD 1\n", // double space
		"A 1 0.2 0 0 1\nA 2 0.2 0\nD 1\n",      // admission without servers
		"A 1 0.2 0 0 1\nD 1 0.2\nD 2\n",        // trailing field
		"A 1 0.2 0 0 1\nX 1\nD 2\n",            // unknown operation
	} {
		if _, _, _, err := ReadWALOffsets(strings.NewReader(log)); err == nil {
			t.Errorf("mid-file corruption accepted: %q", log)
		}
	}
}

// TestReadWALRefusesV1: a log in the v1 format (decision events as JSON
// lines) is refused with ErrWALV1 wherever its lines appear, even as a
// torn tail, instead of being read as corruption or truncated away.
func TestReadWALRefusesV1(t *testing.T) {
	v1 := `{"seq":1,"time":"2026-01-02T03:04:05Z","kind":"attempt","tenant":0,"replica":-1,"server":-1,"slot":-1,"class":-1,"counter":-1,"size":0.3}`
	for _, log := range []string{v1 + "\n", v1, "A 1 0.2 0 0 1\n" + v1 + "\n"} {
		_, _, _, err := ReadWALOffsets(strings.NewReader(log))
		if !errors.Is(err, ErrWALV1) {
			t.Errorf("v1 log %q: err = %v, want ErrWALV1", log, err)
		}
	}
	if !strings.Contains(ErrWALV1.Error(), "v1") || !strings.Contains(ErrWALV1.Error(), "move it aside") {
		t.Fatalf("error does not name the format and the remedy: %v", ErrWALV1)
	}
}

func TestWALFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		recordAdmission(w, i, 0.2, 1, i, i+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is sticky too: the file must not accept unlogged admissions.
	w.Record(walDepart(0))
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("Sync after Close = %v, want ErrWALClosed", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops, _, torn, err := ReadWALOffsets(f)
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	if len(ops) != 10 {
		t.Fatalf("read %d ops, want 10", len(ops))
	}
	// Reopening appends rather than truncating.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Record(walDepart(3))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	ops, _, _, err = ReadWALOffsets(f2)
	if err != nil || len(ops) != 11 || !reflect.DeepEqual(ops[10], Op{Kind: OpDepart, Tenant: 3}) {
		t.Fatalf("after append: %d ops, err=%v", len(ops), err)
	}
}

// TestReadWALOffsets: ends[i] is the exact size the file would have if
// truncated just past record i, so slicing the raw log at any offset
// yields a clean prefix of exactly i+1 ops.
func TestReadWALOffsets(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		recordAdmission(w, i, 0.3, 2, 2*i, 2*i+1)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	ops, ends, torn, err := ReadWALOffsets(bytes.NewReader(whole))
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	if len(ops) != 3 || len(ends) != 3 {
		t.Fatalf("got %d ops, %d offsets, want 3/3", len(ops), len(ends))
	}
	if ends[2] != int64(len(whole)) {
		t.Fatalf("final offset %d, file size %d", ends[2], len(whole))
	}
	for i, end := range ends {
		got, _, torn, err := ReadWALOffsets(bytes.NewReader(whole[:end]))
		if err != nil || torn || len(got) != i+1 {
			t.Fatalf("prefix to offset %d: %d ops, torn=%v, err=%v (want %d)", end, len(got), torn, err, i+1)
		}
	}
}

// TestReadWALUnterminatedTail: the newline is part of the record, so a
// final line lacking one is torn even when the record itself parses —
// its group commit never finished, so recovery must not trust it.
func TestReadWALUnterminatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		recordAdmission(w, i, 0.3, 2, 2*i, 2*i+1)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	data := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	ops, _, torn, err := ReadWALOffsets(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(ops) != 2 {
		t.Fatalf("unterminated tail: %d ops, torn=%v, want 2 ops torn", len(ops), torn)
	}
}

// TestTruncateWAL: the log is cut exactly at the requested record
// boundary, whole records past it included.
func TestTruncateWAL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWAL(&buf)
	for i := 0; i < 3; i++ {
		recordAdmission(w, i, 0.3, 2, 2*i, 2*i+1)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	_, ends, _, err := ReadWALOffsets(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")

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
	ops, _, torn, err := ReadWALOffsets(bytes.NewReader(data))
	if err != nil || torn || len(ops) != 2 {
		t.Fatalf("after truncate: %d ops, torn=%v, err=%v", len(ops), torn, err)
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
	w.Record(walDepart(1))
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
// runs at boot. It must never panic. On success every op has an end
// offset, the offsets strictly increase within the input, and every
// accepted record re-encodes to exactly its own bytes — the reader takes
// only the canonical form — so the prefix cut at the last offset, what
// TruncateWAL keeps, rereads as the same ops with no torn tail.
func FuzzReadWALOffsets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, ends, _, err := ReadWALOffsets(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(ops) != len(ends) {
			t.Fatalf("%d ops but %d end offsets", len(ops), len(ends))
		}
		var prev int64
		for i, end := range ends {
			if end <= prev || end > int64(len(data)) {
				t.Fatalf("end offset %d = %d after %d, input %d bytes", i, end, prev, len(data))
			}
			if got := appendOp(nil, ops[i]); !bytes.Equal(got, data[prev:end]) {
				t.Fatalf("record %d %q re-encodes as %q", i, data[prev:end], got)
			}
			prev = end
		}
		again, againEnds, torn, err := ReadWALOffsets(bytes.NewReader(data[:prev]))
		if err != nil || torn {
			t.Fatalf("committed prefix rereads with torn=%v err=%v", torn, err)
		}
		if !bytes.Equal(encodeOps(again), data[:prev]) || !reflect.DeepEqual(againEnds, ends) {
			t.Fatal("committed prefix rereads as different ops")
		}
	})
}
