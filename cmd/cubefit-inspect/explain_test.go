package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubefit/internal/clock"
	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// tracedArtifacts produces a matching (events.jsonl, placement.json) pair
// from one instrumented CubeFit run.
func tracedArtifacts(t *testing.T) (eventsPath, snapPath string) {
	t.Helper()
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	eventsPath = filepath.Join(dir, "events.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(ef)
	sink := obs.NewJSONL[obs.Event](bw)
	cf.SetRecorder(obs.Stamp(clock.Real(), sink))

	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), dist, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := packing.PlaceAll(cf, workload.Take(src, 120)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	snapPath = filepath.Join(dir, "placement.json")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if err := trace.Write(sf, cf.Placement()); err != nil {
		t.Fatal(err)
	}
	return eventsPath, snapPath
}

func TestExplainSummary(t *testing.T) {
	eventsPath, snapPath := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "-events", eventsPath, snapPath}, nil, &out); err != nil {
		t.Fatalf("explain: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"120 tenant admissions reconstructed",
		"admission paths:",
		"snapshot cross-check: 120 tenants checked, 0 mismatched",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestExplainSingleTenant(t *testing.T) {
	eventsPath, snapPath := tracedArtifacts(t)
	var out bytes.Buffer
	if err := run([]string{"explain", "-events", eventsPath, "-tenant", "3", snapPath},
		nil, &out); err != nil {
		t.Fatalf("explain -tenant: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "tenant 3 (cubefit): path=") {
		t.Errorf("missing tenant header:\n%s", got)
	}
	if !strings.Contains(got, "replica 0 -> server ") {
		t.Errorf("missing replica lines:\n%s", got)
	}
	if !strings.Contains(got, "failover attribution (snapshot):") {
		t.Errorf("missing attribution:\n%s", got)
	}
}

func TestExplainErrors(t *testing.T) {
	eventsPath, _ := tracedArtifacts(t)
	if err := run([]string{"explain"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("explain without -events should fail")
	}
	if err := run([]string{"explain", "-events", "/nonexistent.jsonl"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("explain with a missing log should fail")
	}
	if err := run([]string{"explain", "-events", eventsPath, "-tenant", "99999"},
		nil, new(bytes.Buffer)); err == nil {
		t.Error("explain of an unknown tenant should fail")
	}
}
