package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
)

func TestRunBothWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err := run([]string{"-ops", "300", "-batch", "16", "-workers", "2", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "batch speedup:") {
		t.Fatalf("missing speedup line:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("report has %d benchmarks, want 2", len(rep.Benchmarks))
	}
	for i, name := range []string{"Load/single", "Load/batch"} {
		b := rep.Benchmarks[i]
		if b.Name != name || b.Iterations != 300 {
			t.Fatalf("benchmark %d = %+v", i, b)
		}
		for _, unit := range []string{
			"ns/op", "p50-ns", "p99-ns", "tenants/s",
			"queue-p50-ns", "queue-p99-ns", "place-p50-ns", "place-p99-ns",
			"commit-p50-ns", "commit-p99-ns",
		} {
			if _, ok := b.Metrics[unit]; !ok {
				t.Fatalf("%s missing metric %s", name, unit)
			}
		}
		if b.Metrics["ns/op"] <= 0 || b.Metrics["queue-p99-ns"] < b.Metrics["queue-p50-ns"] {
			t.Fatalf("%s metrics implausible: %v", name, b.Metrics)
		}
		if _, ok := b.Metrics["health-transitions"]; !ok {
			t.Fatalf("%s missing the health-transitions column: %v", name, b.Metrics)
		}
	}
	if !strings.Contains(buf.String(), "stages:") {
		t.Fatalf("missing stage breakdown line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "health:") {
		t.Fatalf("missing health verdict line:\n%s", buf.String())
	}
}

// TestRunHealthOff: -health=false keeps the sampling loop off and omits
// the health line and column (the overhead-measurement baseline).
func TestRunHealthOff(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "200", "-batch", "16",
		"-health=false", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "health:") {
		t.Fatal("health-off run printed a health verdict")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Benchmarks[0].Metrics["health-transitions"]; ok {
		t.Fatal("health-off report carries the health column")
	}
}

// TestRunTracingOff: -trace=false still measures, omits the stage
// columns, and prints no stage line.
func TestRunTracingOff(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "200", "-batch", "16",
		"-trace=false", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "stages:") {
		t.Fatal("tracing-off run printed a stage breakdown")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Benchmarks[0].Metrics["queue-p50-ns"]; ok {
		t.Fatal("tracing-off report carries stage columns")
	}
	if rep.Benchmarks[0].Metrics["ns/op"] <= 0 {
		t.Fatal("tracing-off report lost the throughput metrics")
	}
}

// TestRunSpanExport: -spans captures a JSONL log whose spans cover every
// admission of the run and telescope.
func TestRunSpanExport(t *testing.T) {
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-mode", "batch", "-ops", "192", "-batch", "16",
		"-spans", spansPath}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadJSONL[obs.Span](f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 192 {
		t.Fatalf("exported %d spans, want 192", len(spans))
	}
	for _, s := range spans {
		sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
		if sum != s.TotalNs() {
			t.Fatalf("span does not telescope: %+v", s)
		}
		if !s.Batch || s.Status != 201 {
			t.Fatalf("unexpected span shape: %+v", s)
		}
	}
}

func TestRunSingleMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "single", "-ops", "200", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "speedup") {
		t.Fatal("single mode printed a speedup")
	}
}

// TestRunWALMode: the log a -wal run leaves recovers to exactly the
// tenants the run acked, and a second run refuses to append to it (two
// controllers' histories in one file no longer replay).
func TestRunWALMode(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	args := []string{"-mode", "batch", "-ops", "200", "-batch", "16", "-wal", walPath}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	cf, st, err := recovery.FromFile(walPath, core.Config{Gamma: 2, K: 10})
	if err != nil {
		t.Fatalf("the run's log does not recover: %v", err)
	}
	if st.Admitted != 200 || st.Rejected != 0 || st.Departed != 0 {
		t.Fatalf("recovery stats %+v, want 200 admitted and nothing else", st)
	}
	if n := cf.Placement().NumTenants(); n != 200 {
		t.Fatalf("recovered %d tenants, want 200", n)
	}
	for id := 0; id < 200; id++ {
		if _, ok := cf.Placement().Tenant(packing.TenantID(id)); !ok {
			t.Fatalf("acked tenant %d missing after recovery", id)
		}
	}
	if err := run(args, &buf); err == nil {
		t.Fatal("a second run appended to an existing log")
	}
	if _, _, err := recovery.FromFile(walPath, core.Config{Gamma: 2, K: 10}); err != nil {
		t.Fatalf("refused rerun damaged the log: %v", err)
	}
}

func TestRunGateFails(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-ops", "200", "-batch", "16", "-minspeedup", "1e9"}, &buf)
	if !errors.Is(err, ErrGate) {
		t.Fatalf("impossible gate passed: %v", err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-ops", "0"},
		{"-workers", "0"},
		{"-batch", "0"},
		{"-mode", "single", "-minspeedup", "2"},
		{"-url", "http://localhost:1", "-trace=false"},
		{"-url", "http://localhost:1", "-spans", "x.jsonl"},
		{"-spans", "x.jsonl", "-trace=false"},
		{"-wal", "x.jsonl"}, // mode both would log two controllers into one file
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestEncodeRequest(t *testing.T) {
	body, path := encodeRequest(5, 6, false)
	if path != "/v1/tenants" || !json.Valid(body) {
		t.Fatalf("single: path %q body %s", path, body)
	}
	body, path = encodeRequest(0, 3, true)
	if path != "/v1/tenants:batch" || !json.Valid(body) {
		t.Fatalf("batch: path %q body %s", path, body)
	}
	var br struct {
		Tenants []struct {
			ID      int `json:"id"`
			Clients int `json:"clients"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Tenants) != 3 || br.Tenants[2].ID != 2 || br.Tenants[2].Clients != 3 {
		t.Fatalf("batch body decoded to %+v", br)
	}
}
