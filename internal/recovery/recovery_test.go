package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// driveEngine runs a deterministic mixed workload — client-derived loads,
// explicit loads, a duplicate admission, an invalid load, departures —
// against a fresh engine, recording into rec when non-nil.
func driveEngine(t *testing.T, cfg core.Config, rec obs.Recorder) *core.CubeFit {
	t.Helper()
	cf, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		cf.SetRecorder(rec)
	}
	model := workload.DefaultLoadModel()
	id := 0
	for i := 1; i <= 30; i++ {
		clients := 1 + (i*7)%15
		tn := packing.Tenant{ID: packing.TenantID(id), Load: model.Load(clients), Clients: clients}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	for i := 0; i < 10; i++ {
		tn := packing.Tenant{ID: packing.TenantID(id), Load: 0.05 + float64(i)*0.07}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	// A duplicate admission and an invalid load: both rejected, both logged.
	if err := cf.Place(packing.Tenant{ID: 0, Load: 0.3}); err == nil {
		t.Fatal("duplicate admission succeeded")
	}
	if err := cf.Place(packing.Tenant{ID: packing.TenantID(id), Load: 1.5}); err == nil {
		t.Fatal("overload admission succeeded")
	}
	id++
	for _, victim := range []int{3, 17, 31} {
		if err := cf.Remove(packing.TenantID(victim)); err != nil {
			t.Fatalf("remove %d: %v", victim, err)
		}
	}
	// Refill after departures so recovery exercises slot reuse.
	for i := 0; i < 5; i++ {
		tn := packing.Tenant{ID: packing.TenantID(id), Load: 0.11, Clients: 4}
		if err := cf.Place(tn); err != nil {
			t.Fatalf("place %d: %v", id, err)
		}
		id++
	}
	return cf
}

// logEngine drives the mixed workload with a WAL attached and returns
// the live engine, the log bytes and the ops they decode to.
func logEngine(t *testing.T, cfg core.Config) (*core.CubeFit, []byte, []obs.Op) {
	t.Helper()
	var buf bytes.Buffer
	wal := obs.NewWAL(&buf)
	live := driveEngine(t, cfg, obs.Stamp(clock.NewFake(time.Unix(0, 0)), wal))
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	ops, _, torn, err := obs.ReadWALOffsets(bytes.NewReader(buf.Bytes()))
	if err != nil || torn {
		t.Fatalf("ReadWALOffsets: torn=%v err=%v", torn, err)
	}
	return live, buf.Bytes(), ops
}

func TestRebuildReproducesExactState(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	live, _, ops := logEngine(t, cfg)
	rebuilt, st, err := Rebuild(ops, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 45 || st.Rejected != 2 || st.Departed != 3 || st.Ops != 50 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := trace.Capture(rebuilt.Placement()), trace.Capture(live.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt snapshot differs from live snapshot")
	}
	if got, want := rebuilt.Stats(), live.Stats(); got != want {
		t.Fatalf("rebuilt Stats %+v, live %+v", got, want)
	}
	if err := Verify(rebuilt, ops); err != nil {
		t.Fatal(err)
	}

	// The rebuilt engine must keep behaving identically: admitting the
	// same next tenant lands it on the same servers.
	next := packing.Tenant{ID: 999, Load: 0.21, Clients: 6}
	if err := live.Place(next); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Place(next); err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.Placement().TenantHosts(999), live.Placement().TenantHosts(999); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery placement diverged: %v vs %v", got, want)
	}
}

// TestRebuildDropsUncommittedTail: a crash mid-admission — the attempt and
// a partial placement reached the log, the closing admit never did — must
// not bring the tenant back. The log writes nothing until the admission
// closes, so the open attempt leaves no bytes at all.
func TestRebuildDropsUncommittedTail(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	live, committed, _ := logEngine(t, cfg)
	var buf bytes.Buffer
	buf.Write(committed)
	wal := obs.NewWAL(&buf)
	open := obs.NewEvent(obs.KindAttempt)
	open.Tenant = 777
	open.Size = 0.4
	place := obs.NewEvent(obs.KindStage1Place)
	place.Tenant = 777
	place.Replica = 0
	place.Server = 0
	place.Size = 0.2
	wal.Record(open)
	wal.Record(place)
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Fatalf("an unclosed admission wrote %q", buf.Bytes()[len(committed):])
	}
	ops, _, _, err := obs.ReadWALOffsets(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := Rebuild(ops, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, exists := rebuilt.Placement().Tenant(777); exists {
		t.Fatal("uncommitted admission resurrected by recovery")
	}
	if got, want := trace.Capture(rebuilt.Placement()), trace.Capture(live.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt snapshot differs after dropping uncommitted tail")
	}
	if err := Verify(rebuilt, ops); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildChecksEveryOp: a log whose recorded hosts disagree with what
// the engine re-derives is refused at that operation, as is a log whose
// recorded outcome does not replay.
func TestRebuildChecksEveryOp(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	_, _, ops := logEngine(t, cfg)
	admit := slices.IndexFunc(ops[10:], func(o obs.Op) bool { return o.Kind == obs.OpAdmit }) + 10
	reject := slices.IndexFunc(ops, func(o obs.Op) bool { return o.Kind == obs.OpReject })

	doctored := slices.Clone(ops)
	doctored[admit].Servers = []int{ops[admit].Servers[1], ops[admit].Servers[0]}
	_, _, err := Rebuild(doctored, cfg)
	if want := fmt.Sprintf("op %d: tenant %d replays onto servers", admit+1, ops[admit].Tenant); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("swapped hosts: err = %v, want it to contain %q", err, want)
	}

	doctored = slices.Clone(ops)
	doctored[reject].Kind = obs.OpAdmit
	doctored[reject].Servers = []int{0, 1}
	if _, _, err := Rebuild(doctored, cfg); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("op %d:", reject+1)) {
		t.Fatalf("rejection logged as admission: err = %v", err)
	}

	// Verify holds an engine to the log's end state on its own.
	rebuilt, _, err := Rebuild(ops, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := slices.Clone(ops)
	for i := len(last) - 1; i >= 0; i-- {
		if last[i].Kind == obs.OpAdmit {
			last[i].Servers = []int{last[i].Servers[1], last[i].Servers[0]}
			break
		}
	}
	if err := Verify(rebuilt, last); err == nil {
		t.Fatal("Verify accepted an engine hosting a tenant off its logged servers")
	}
	if err := Verify(rebuilt, ops[:len(ops)-1]); err == nil {
		t.Fatal("Verify accepted an engine holding a tenant the log never admitted")
	}
}

func TestFromFileTornTail(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	_, data, _ := logEngine(t, cfg)
	path := filepath.Join(t.TempDir(), "wal.log")
	// Tear the final record in half, as an interrupted write would.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	cf, st, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFromFileCommittedBytes: recovery reports the byte offset of the last
// complete record, and truncating the file there removes a torn tail —
// here a complete record missing its newline — so records appended after
// it replay cleanly on the following boot.
func TestFromFileCommittedBytes(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	_, committed, _ := logEngine(t, cfg)
	committedSize := int64(len(committed))
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, append(slices.Clone(committed), "A 777 0.4 0 0 1"...), 0o644); err != nil {
		t.Fatal(err)
	}
	cf, st, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn || st.CommittedBytes != committedSize {
		t.Fatalf("Torn = %v, CommittedBytes = %d, want true, %d", st.Torn, st.CommittedBytes, committedSize)
	}
	if _, exists := cf.Placement().Tenant(777); exists {
		t.Fatal("unterminated admission resurrected by recovery")
	}

	// The boot sequence truncates there; the trimmed log then recovers to
	// the same state with nothing torn — the next boot is clean.
	if trimmed, err := obs.TruncateWAL(path, st.CommittedBytes); err != nil || trimmed == 0 {
		t.Fatalf("TruncateWAL: trimmed %d, err %v", trimmed, err)
	}
	cf2, st2, err := FromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Torn || st2.CommittedBytes != committedSize {
		t.Fatalf("after truncation: %+v", st2)
	}
	if got, want := trace.Capture(cf2.Placement()), trace.Capture(cf.Placement()); !reflect.DeepEqual(got, want) {
		t.Fatal("truncated log recovers a different state")
	}
}

func TestFromFileMissingLogIsFresh(t *testing.T) {
	cfg := core.Config{Gamma: 3, K: 10}
	cf, st, err := FromFile(filepath.Join(t.TempDir(), "absent.log"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
	if cf.Placement().NumTenants() != 0 {
		t.Fatal("fresh engine is not empty")
	}
}

// TestFromFileRefusesV1Log: a log in the retired event-JSON format is
// refused with the error that names the format and the remedy.
func TestFromFileRefusesV1Log(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	v1 := `{"seq":1,"time":"2026-01-02T03:04:05Z","kind":"attempt","tenant":0,"replica":-1,"server":-1,"slot":-1,"class":-1,"counter":-1,"size":0.3}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromFile(path, core.Config{Gamma: 2, K: 10}); !errors.Is(err, obs.ErrWALV1) {
		t.Fatalf("v1 log: err = %v, want ErrWALV1", err)
	}
}

func TestRebuildRejectsGammaMismatch(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	_, _, ops := logEngine(t, cfg)
	if _, _, err := Rebuild(ops, core.Config{Gamma: 3, K: 10}); err == nil ||
		!strings.Contains(err.Error(), "γ=2") {
		t.Fatalf("gamma mismatch not detected: %v", err)
	}
}
