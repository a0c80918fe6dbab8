package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

func buildPlacement(t *testing.T) *packing.Placement {
	t.Helper()
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), mustUniform(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := packing.PlaceAll(cf, workload.Take(src, 100)); err != nil {
		t.Fatal(err)
	}
	return cf.Placement()
}

func mustUniform(t *testing.T) workload.Uniform {
	t.Helper()
	u, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRoundTrip(t *testing.T) {
	p := buildPlacement(t)
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	snap, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := trace.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Gamma() != p.Gamma() {
		t.Fatalf("gamma %d != %d", restored.Gamma(), p.Gamma())
	}
	if restored.NumServers() != p.NumServers() {
		t.Fatalf("servers %d != %d", restored.NumServers(), p.NumServers())
	}
	if restored.NumTenants() != p.NumTenants() {
		t.Fatalf("tenants %d != %d", restored.NumTenants(), p.NumTenants())
	}
	if !packing.AlmostEqual(restored.TotalLoad(), p.TotalLoad()) {
		t.Fatalf("load %v != %v", restored.TotalLoad(), p.TotalLoad())
	}
	// Per-server levels and shared loads must match exactly.
	for _, s := range p.Servers() {
		rs := restored.Server(s.ID())
		if !packing.AlmostEqualTol(rs.Level(), s.Level(), packing.SharedEps) {
			t.Fatalf("server %d level %v != %v", s.ID(), rs.Level(), s.Level())
		}
		s.EachShared(func(j int, v float64) {
			if !packing.AlmostEqualTol(rs.SharedWith(j), v, packing.SharedEps) {
				t.Fatalf("server %d shared with %d: %v != %v", s.ID(), j, rs.SharedWith(j), v)
			}
		})
	}
	// Robustness must survive the round trip.
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONShape(t *testing.T) {
	p := buildPlacement(t)
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"gamma": 2`, `"servers"`, `"tenants"`, `"replicas"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%.400s", want, out)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoreErrors(t *testing.T) {
	// Bad gamma.
	if _, err := trace.Restore(trace.Snapshot{Gamma: 0}); err == nil {
		t.Fatal("gamma 0 accepted")
	}
	// Replica referencing an unknown tenant.
	snap := trace.Snapshot{
		Gamma: 2,
		Servers: []trace.ServerSnapshot{
			{ID: 0, Replicas: []trace.ReplicaSnapshot{{Tenant: 7, Index: 0, Size: 0.2}}},
		},
	}
	if _, err := trace.Restore(snap); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}

// TestRestoreRejectsUntrustedSizes: the server count and γ size the
// placement Restore allocates, so ids outside the listed servers, repeated
// ids and an oversized γ are refused before anything is allocated.
func TestRestoreRejectsUntrustedSizes(t *testing.T) {
	for name, snap := range map[string]trace.Snapshot{
		"huge server id":   {Gamma: 2, Servers: []trace.ServerSnapshot{{ID: 2000000000}}},
		"negative id":      {Gamma: 2, Servers: []trace.ServerSnapshot{{ID: -1}}},
		"id past the list": {Gamma: 2, Servers: []trace.ServerSnapshot{{ID: 0}, {ID: 2}}},
		"duplicate id":     {Gamma: 2, Servers: []trace.ServerSnapshot{{ID: 0}, {ID: 0}}},
		"huge gamma":       {Gamma: 1 << 40, Tenants: []trace.TenantSnapshot{{ID: 1, Load: 0.5}}},
	} {
		if _, err := trace.Restore(snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Servers out of order are fine as long as they cover 0..n-1.
	p, err := trace.Restore(trace.Snapshot{Gamma: trace.MaxGamma, Servers: []trace.ServerSnapshot{{ID: 1}, {ID: 0}}})
	if err != nil || p.NumServers() != 2 {
		t.Fatalf("permuted server list: %v", err)
	}
}

// FuzzTraceRestore drives untrusted bytes through the snapshot decoder
// and Restore, as cubefit-inspect does with a placement read from disk or
// a pipe. Nothing may panic, and a placement Restore accepts must round
// trip: its Capture restores again to the same snapshot.
func FuzzTraceRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := trace.Restore(snap)
		if err != nil {
			return
		}
		first := trace.Capture(p)
		again, err := trace.Restore(first)
		if err != nil {
			t.Fatalf("captured snapshot does not restore: %v", err)
		}
		if second := trace.Capture(again); !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", first, second)
		}
	})
}

func TestEmptyPlacementRoundTrip(t *testing.T) {
	p, err := packing.NewPlacement(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	snap, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := trace.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Gamma() != 3 || restored.NumServers() != 0 {
		t.Fatalf("restored %+v", restored)
	}
}
