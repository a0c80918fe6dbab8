package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cubefit/internal/clock"
)

// collector is a minimal Recorder that keeps every event.
type collector struct{ events []Event }

func (c *collector) Record(e Event) { c.events = append(c.events, e) }

func TestNewEventSentinels(t *testing.T) {
	e := NewEvent(KindProbe)
	if e.Kind != KindProbe {
		t.Errorf("kind = %q", e.Kind)
	}
	for name, v := range map[string]int{
		"tenant": e.Tenant, "replica": e.Replica, "server": e.Server,
		"slot": e.Slot, "class": e.Class, "counter": e.Counter,
	} {
		if v != Unset {
			t.Errorf("%s = %d, want Unset", name, v)
		}
	}
}

// recordType builds and identifies the records of one ring/sink element
// type, so the Ring and JSONL tests run unchanged over every type the
// tree stores: mk returns a distinct record for id, and id reads it back.
type recordType[T any] struct {
	mk func(id int) T
	id func(T) int
}

var (
	eventRecords = recordType[Event]{
		mk: func(id int) Event { e := NewEvent(KindProbe); e.Tenant = id; return e },
		id: func(e Event) int { return e.Tenant },
	}
	spanRecords = recordType[Span]{
		mk: func(id int) Span { return Span{Tenant: id} },
		id: func(s Span) int { return s.Tenant },
	}
	healthRecords = recordType[HealthRecord]{
		mk: func(id int) HealthRecord { return HealthRecord{Kind: HealthKindSample, TNs: int64(id)} },
		id: func(h HealthRecord) int { return int(h.TNs) },
	}
)

// ringCase records ids 1..records into a ring of the given capacity;
// Last(n) must then return the records want, oldest first.
type ringCase struct {
	name                 string
	capacity, records, n int
	want                 []int
}

func TestRingWraparound(t *testing.T) {
	cases := []ringCase{
		{"all", 4, 10, -1, []int{7, 8, 9, 10}},
		{"last 2", 4, 10, 2, []int{9, 10}},
		{"n beyond capacity", 4, 10, 100, []int{7, 8, 9, 10}},
		{"n zero", 4, 10, 0, []int{}},
		{"capacity 3", 3, 5, -1, []int{3, 4, 5}},
		{"capacity 3 last 2", 3, 5, 2, []int{4, 5}},
		{"exactly full", 3, 3, -1, []int{1, 2, 3}},
		{"capacity clamped to 1", 0, 3, -1, []int{3}},
	}
	t.Run("Event", func(t *testing.T) { checkRing(t, eventRecords, cases) })
	t.Run("Span", func(t *testing.T) { checkRing(t, spanRecords, cases) })
	t.Run("HealthRecord", func(t *testing.T) { checkRing(t, healthRecords, cases) })
}

func TestRingBeforeWrap(t *testing.T) {
	cases := []ringCase{
		{"all", 8, 3, -1, []int{1, 2, 3}},
		{"last 2", 8, 3, 2, []int{2, 3}},
		{"n beyond stored", 8, 3, 5, []int{1, 2, 3}},
		{"n zero", 8, 3, 0, []int{}},
		{"empty", 8, 0, -1, []int{}},
	}
	t.Run("Event", func(t *testing.T) { checkRing(t, eventRecords, cases) })
	t.Run("Span", func(t *testing.T) { checkRing(t, spanRecords, cases) })
	t.Run("HealthRecord", func(t *testing.T) { checkRing(t, healthRecords, cases) })
}

func checkRing[T any](t *testing.T, rt recordType[T], cases []ringCase) {
	for _, tc := range cases {
		r := NewRing[T](tc.capacity)
		for id := 1; id <= tc.records; id++ {
			r.Record(rt.mk(id))
		}
		if got := r.Total(); got != uint64(tc.records) {
			t.Errorf("%s: Total = %d, want %d", tc.name, got, tc.records)
		}
		got := r.Last(tc.n)
		// Never nil, so an empty window still encodes as a JSON array.
		if got == nil {
			t.Errorf("%s: Last(%d) = nil, want an empty slice", tc.name, tc.n)
		}
		want := make([]T, len(tc.want))
		for i, id := range tc.want {
			want[i] = rt.mk(id)
		}
		if !reflect.DeepEqual(got, want) {
			ids := make([]int, len(got))
			for i, v := range got {
				ids[i] = rt.id(v)
			}
			t.Errorf("%s: Last(%d) = ids %v, want %v", tc.name, tc.n, ids, tc.want)
		}
		total, snap := r.Snapshot(tc.n)
		if total != uint64(tc.records) || !reflect.DeepEqual(snap, got) {
			t.Errorf("%s: Snapshot(%d) = %d, %v; want %d, %v", tc.name, tc.n, total, snap, tc.records, got)
		}
	}
}

// TestRingSnapshotConsistent races a writer against Snapshot readers: the
// returned total must always match the newest returned event, which two
// separate Total/Last lock acquisitions cannot guarantee.
func TestRingSnapshotConsistent(t *testing.T) {
	r := NewRing[Event](16)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := NewEvent(KindProbe)
			e.Seq = uint64(i) // stand-in for the Stamp wrapper
			r.Record(e)
		}
	}()
	for i := 0; i < 5000; i++ {
		total, events := r.Snapshot(4)
		if total == 0 {
			if len(events) != 0 {
				t.Fatalf("total 0 with %d events", len(events))
			}
			continue
		}
		if len(events) == 0 {
			t.Fatalf("total %d with no events", total)
		}
		if newest := events[len(events)-1].Seq; newest != total {
			t.Fatalf("snapshot skewed: total %d, newest seq %d", total, newest)
		}
	}
	close(stop)
	<-done
}

func TestStampAssignsSeqAndTime(t *testing.T) {
	fake := clock.NewFake(time.Unix(100, 0))
	var c collector
	rec := Stamp(fake, &c)
	rec.Record(NewEvent(KindAttempt))
	fake.Advance(3 * time.Second)
	rec.Record(NewEvent(KindAdmit))
	if len(c.events) != 2 {
		t.Fatalf("got %d events", len(c.events))
	}
	if c.events[0].Seq != 1 || c.events[1].Seq != 2 {
		t.Errorf("seqs = %d, %d, want 1, 2", c.events[0].Seq, c.events[1].Seq)
	}
	if !c.events[0].Time.Equal(time.Unix(100, 0)) {
		t.Errorf("first time = %v", c.events[0].Time)
	}
	if got := c.events[1].Time.Sub(c.events[0].Time); got != 3*time.Second {
		t.Errorf("time delta = %v, want 3s", got)
	}
}

func TestTee(t *testing.T) {
	var a, b collector
	rec := Tee(&a, nil, &b)
	rec.Record(NewEvent(KindAttempt))
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Errorf("tee delivered %d/%d, want 1/1", len(a.events), len(b.events))
	}
	if Tee() != nil {
		t.Error("Tee() with no sinks should be nil")
	}
	if Tee(nil, &a) != &a {
		t.Error("Tee with one live sink should return it directly")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL[Event](&buf)
	fake := clock.NewFake(time.Unix(42, 0))
	rec := Stamp(fake, sink)

	e := NewEvent(KindCubePlace)
	e.Engine = "cubefit"
	e.Tenant = 7
	e.Replica = 1
	e.Server = 3
	e.Slot = 2
	e.Class = 5
	e.Counter = 9
	e.Digits = []int{1, 4}
	e.Size = 0.25
	rec.Record(e)
	rec.Record(NewEvent(KindAdmit))

	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 2 {
		t.Errorf("Count = %d, want 2", sink.Count())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}

	back, err := ReadJSONL[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d events, want 2", len(back))
	}
	got := back[0]
	if got.Kind != KindCubePlace || got.Tenant != 7 || got.Server != 3 ||
		got.Slot != 2 || got.Class != 5 || got.Counter != 9 {
		t.Errorf("round-trip mangled event: %+v", got)
	}
	if len(got.Digits) != 2 || got.Digits[0] != 1 || got.Digits[1] != 4 {
		t.Errorf("digits = %v", got.Digits)
	}
	if got.Seq != 1 || !got.Time.Equal(time.Unix(42, 0)) {
		t.Errorf("stamp lost: seq=%d time=%v", got.Seq, got.Time)
	}
}

func TestJSONLStickyError(t *testing.T) {
	t.Run("Event", func(t *testing.T) { checkStickyError(t, eventRecords) })
	t.Run("Span", func(t *testing.T) { checkStickyError(t, spanRecords) })
	t.Run("HealthRecord", func(t *testing.T) { checkStickyError(t, healthRecords) })
}

// checkStickyError pins the sink's failure contract: the first write
// error is kept, later records are dropped without touching the writer,
// and failed writes are not counted.
func checkStickyError[T any](t *testing.T, rt recordType[T]) {
	w := &failWriter{}
	sink := NewJSONL[T](w)
	sink.Record(rt.mk(1))
	err := sink.Err()
	if !errors.Is(err, errWrite) {
		t.Fatalf("Err = %v, want the writer's error", err)
	}
	sink.Record(rt.mk(2))
	if sink.Err() != err {
		t.Errorf("Err = %v after a second record, want the first error %v", sink.Err(), err)
	}
	if w.writes != 1 {
		t.Errorf("writer called %d times, want 1 (records after an error are dropped)", w.writes)
	}
	if sink.Count() != 0 {
		t.Errorf("Count = %d after error, want 0 (failed writes are not counted)", sink.Count())
	}
}

// failWriter fails every write, counting the attempts.
type failWriter struct{ writes int }

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errWrite
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL[Event](strings.NewReader("{\"kind\":\"admit\"}\nnot json\n")); err == nil {
		t.Error("expected an error on malformed JSONL")
	}
}

// FuzzReadJSONL feeds arbitrary bytes to the JSONL reader as event, span
// and health logs. The reader must never panic, and any input it accepts
// must survive a trip through the sink: the decoded records, written back
// and read again, are the same records. They are compared by encoding,
// because omitempty writes an empty slice or map the same as a nil one.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONLRoundTrip[Event](t, data)
		checkJSONLRoundTrip[Span](t, data)
		checkJSONLRoundTrip[HealthRecord](t, data)
	})
}

func checkJSONLRoundTrip[T any](t *testing.T, data []byte) {
	recs, err := ReadJSONL[T](bytes.NewReader(data))
	if err != nil {
		return
	}
	first := writeJSONL(t, recs)
	again, err := ReadJSONL[T](bytes.NewReader(first))
	if err != nil {
		t.Fatalf("%T: rereading the sink's output: %v", recs, err)
	}
	if len(again) != len(recs) {
		t.Fatalf("%T: reread %d records, wrote %d", recs, len(again), len(recs))
	}
	if second := writeJSONL(t, again); !bytes.Equal(second, first) {
		t.Fatalf("%T: records changed across a round trip:\n%s\nvs\n%s", recs, first, second)
	}
}

// writeJSONL encodes recs through the sink, failing on any write error.
func writeJSONL[T any](t *testing.T, recs []T) []byte {
	var buf bytes.Buffer
	sink := NewJSONL[T](&buf)
	for _, r := range recs {
		sink.Record(r)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("%T: writing accepted records: %v", recs, err)
	}
	if sink.Count() != uint64(len(recs)) {
		t.Fatalf("%T: Count = %d, want %d", recs, sink.Count(), len(recs))
	}
	return buf.Bytes()
}
