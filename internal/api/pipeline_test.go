package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// newEngineServer builds a CubeFit-backed controller (optionally with a
// WAL) and serves it, returning the engine for state inspection. Cleanup
// closes the HTTP server before draining the controller pipeline.
func newEngineServer(t *testing.T, opts ...Option) (*httptest.Server, *core.CubeFit, *Controller) {
	t.Helper()
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(cf, workload.DefaultLoadModel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	srv := httptest.NewServer(ctrl.Handler())
	t.Cleanup(srv.Close)
	return srv, cf, ctrl
}

// getBody fetches url and returns the raw response body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// TestBatchSerialParity is the pipeline's correctness bar: admitting N
// tenants in one batch must leave state byte-identical to N serial single
// requests — same placement snapshot, same stats — across batch sizes and
// workload seeds.
func TestBatchSerialParity(t *testing.T) {
	for _, size := range []int{1, 2, 7, 33, 128} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d_seed%d", size, seed), func(t *testing.T) {
				src, err := workload.NewClientSource(workload.DefaultLoadModel(),
					workload.Uniform{Lo: 1, Hi: 15}, seed)
				if err != nil {
					t.Fatal(err)
				}
				tenants := workload.Take(src, size)

				serialSrv, serialCF, _ := newEngineServer(t)
				for _, tn := range tenants {
					code := doJSON(t, "POST", serialSrv.URL+"/v1/tenants",
						map[string]any{"id": int(tn.ID), "clients": tn.Clients}, nil)
					if code != http.StatusCreated {
						t.Fatalf("serial place %d: %d", tn.ID, code)
					}
				}

				batchSrv, batchCF, _ := newEngineServer(t)
				items := make([]map[string]any, len(tenants))
				for i, tn := range tenants {
					items[i] = map[string]any{"id": int(tn.ID), "clients": tn.Clients}
				}
				var resp batchResponse
				code := doJSON(t, "POST", batchSrv.URL+"/v1/tenants:batch",
					map[string]any{"tenants": items}, &resp)
				if code != http.StatusOK {
					t.Fatalf("batch status %d", code)
				}
				if resp.Placed != size || resp.Failed != 0 {
					t.Fatalf("batch placed %d failed %d, want %d/0", resp.Placed, resp.Failed, size)
				}

				serialSnap := getBody(t, serialSrv.URL+"/v1/placement")
				batchSnap := getBody(t, batchSrv.URL+"/v1/placement")
				if !bytes.Equal(serialSnap, batchSnap) {
					t.Fatalf("placement snapshots differ:\nserial: %s\nbatch:  %s", serialSnap, batchSnap)
				}
				if !bytes.Equal(getBody(t, serialSrv.URL+"/v1/stats"), getBody(t, batchSrv.URL+"/v1/stats")) {
					t.Fatal("stats differ")
				}
				if serialCF.Stats() != batchCF.Stats() {
					t.Fatalf("engine stats differ: %+v vs %+v", serialCF.Stats(), batchCF.Stats())
				}
				// Per-item servers must match the serial placements.
				for i, tn := range tenants {
					want := serialCF.Placement().TenantHosts(tn.ID)
					if !reflect.DeepEqual(resp.Results[i].Servers, want) {
						t.Fatalf("item %d servers %v, want %v", i, resp.Results[i].Servers, want)
					}
				}
			})
		}
	}
}

// TestBatchPartialFailure exercises the per-item status contract: invalid
// items fail with their single-endpoint status while the rest of the
// batch lands.
func TestBatchPartialFailure(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	var resp batchResponse
	code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{
		"tenants": []map[string]any{
			{"id": 1, "load": 0.3},
			{"id": 2, "load": -0.5},   // malformed: 400
			{"id": 3, "clients": 500}, // derived load > 1: 422
			{"id": 1, "load": 0.2},    // duplicate of item 0: 409
			{"id": 4, "clients": 8},   // fine
			{"id": 5},                 // neither load nor clients: 400
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	want := []int{201, 400, 422, 409, 201, 400}
	if resp.Placed != 2 || resp.Failed != 4 {
		t.Fatalf("placed %d failed %d, want 2/4", resp.Placed, resp.Failed)
	}
	for i, st := range want {
		if resp.Results[i].Status != st {
			t.Fatalf("item %d status %d (%s), want %d", i, resp.Results[i].Status, resp.Results[i].Error, st)
		}
	}
	for i := range want {
		if want[i] != 201 && resp.Results[i].Error == "" {
			t.Fatalf("item %d: failure without error message", i)
		}
	}
	// Every result echoes the submitted tenant id, including failures
	// that never reached the engine (the 422 derived-load refusal).
	for i, id := range []int{1, 2, 3, 1, 4, 5} {
		if resp.Results[i].ID != id {
			t.Fatalf("item %d echoed id %d, want %d", i, resp.Results[i].ID, id)
		}
	}
	// Partial failure: the two successes are really admitted and the
	// placement still validates.
	if n := cf.Placement().NumTenants(); n != 2 {
		t.Fatalf("admitted %d tenants, want 2", n)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRejectsMalformedAndOversized(t *testing.T) {
	srv, _, _ := newEngineServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": []any{}}, nil); code != 400 {
		t.Fatalf("empty batch status %d", code)
	}
	big := make([]map[string]any, maxBatchTenants+1)
	for i := range big {
		big[i] = map[string]any{"id": i, "load": 0.1}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": big}, nil); code != 400 {
		t.Fatalf("oversized batch status %d", code)
	}
}

// TestDerivedLoadValidated is the regression test for the unclamped
// model-derived load: a client count mapping above 1 must be refused with
// 422, not injected into the engine.
func TestDerivedLoadValidated(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	var errResp errorResponse
	code := doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 1, "clients": 500}, &errResp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (error %q)", code, errResp.Error)
	}
	if errResp.Error == "" {
		t.Fatal("422 without a clear error message")
	}
	if n := cf.Placement().NumTenants(); n != 0 {
		t.Fatalf("invalid admission perturbed state: %d tenants", n)
	}
	// The boundary case still places: MaxClientsPerServer derives exactly 1.
	code = doJSON(t, "POST", srv.URL+"/v1/tenants",
		map[string]any{"id": 2, "clients": workload.MaxClientsPerServer}, nil)
	if code != http.StatusCreated {
		t.Fatalf("boundary clients status %d, want 201", code)
	}
}

// TestWALKillRestart proves the recovery contract end to end: a server
// that dies after acking admissions (singles, batches, departures) is
// rebuilt from its WAL into the exact acked state — snapshot, stats, and
// headroom report all byte-identical.
func TestWALKillRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, cf, ctrl := newEngineServer(t, WithWAL(wal))

	for i := 0; i < 10; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("place %d failed", i)
		}
	}
	items := make([]map[string]any, 20)
	for i := range items {
		items[i] = map[string]any{"id": 100 + i, "load": 0.05 + float64(i%9)*0.04}
	}
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": items}, &bresp); code != 200 || bresp.Failed != 0 {
		t.Fatalf("batch: code %d failed %d", code, bresp.Failed)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/tenants/3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	ackedSnap := trace.Capture(cf.Placement())
	ackedStats := cf.Stats()

	// Kill: drain the pipeline and final-commit the WAL, then recover.
	srv.Close()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, rstats, err := recovery.FromFile(path, cf.Config())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Admitted != 30 || rstats.Departed != 1 {
		t.Fatalf("recovery stats %+v", rstats)
	}
	if got := trace.Capture(rebuilt.Placement()); !reflect.DeepEqual(got, ackedSnap) {
		t.Fatal("recovered snapshot differs from acked snapshot")
	}
	if rebuilt.Stats() != ackedStats {
		t.Fatalf("recovered Stats %+v, acked %+v", rebuilt.Stats(), ackedStats)
	}
}

// flakyWriter fails every write once tripped.
type flakyWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	tripped bool
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped {
		return 0, errors.New("disk full")
	}
	return f.buf.Write(p)
}

func (f *flakyWriter) trip() {
	f.mu.Lock()
	f.tripped = true
	f.mu.Unlock()
}

// TestWALFailClosed is the sticky-error contract: once the WAL cannot
// commit, admissions and departures fail with 503 — they are never acked
// unlogged — while read endpoints keep serving.
func TestWALFailClosed(t *testing.T) {
	fw := &flakyWriter{}
	srv, cf, _ := newEngineServer(t, WithWAL(obs.NewWAL(fw)))

	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatalf("healthy admission status %d", code)
	}
	fw.trip()
	var errResp errorResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.3}, &errResp); code != 503 {
		t.Fatalf("post-trip admission status %d, want 503", code)
	}
	// Sticky: still failing, including batches and departures.
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": []map[string]any{{"id": 3, "load": 0.2}}}, &bresp); code != 200 {
		t.Fatalf("batch transport status %d", code)
	} else if bresp.Results[0].Status != 503 {
		t.Fatalf("batch item status %d, want 503", bresp.Results[0].Status)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/tenants/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("delete status %d, want 503", resp.StatusCode)
	}
	// Only the committed admission is in memory; reads still serve.
	if n := cf.Placement().NumTenants(); n != 1 {
		t.Fatalf("tenants = %d, want 1 (unlogged admissions must not land)", n)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, nil); code != 200 {
		t.Fatalf("stats status %d", code)
	}
}

// TestRemoveTenantWALSyncFailureRollsBack: a departure whose group commit
// fails must be rolled back like a failed batch — the client gets 503 and
// the tenant stays admitted, so reads never serve unacked state (and a
// restart, which replays the log without the depart, agrees).
func TestRemoveTenantWALSyncFailureRollsBack(t *testing.T) {
	fw := &flakyWriter{}
	srv, cf, _ := newEngineServer(t, WithWAL(obs.NewWAL(fw)))
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "clients": 5}, nil); code != 201 {
		t.Fatalf("admission status %d", code)
	}
	fw.trip()
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/tenants/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("delete status %d, want 503", resp.StatusCode)
	}
	// The unacked removal was rolled back: the tenant is still placed,
	// with its load and client count intact, and the state validates.
	tn, exists := cf.Placement().Tenant(1)
	if !exists {
		t.Fatal("tenant removed although the departure was acked 503")
	}
	if tn.Clients != 5 {
		t.Fatalf("rolled-back tenant lost its shape: %+v", tn)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/tenants/1", nil, nil); code != 200 {
		t.Fatalf("read-your-503: GET tenant status %d, want 200", code)
	}
}

// gateSyncer is a WAL writer whose group commits pass straight through
// until armed. An armed Sync announces itself on entered and then blocks
// until the test hands it a result, so a test can hold the placer inside
// a commit for as long as it needs. open disarms the gate and releases
// every blocked Sync with success; tests defer it so a failure never
// leaves the placer parked.
type gateSyncer struct {
	armed   atomic.Bool
	entered chan struct{}
	result  chan error
	done    chan struct{}
	once    sync.Once
}

func newGateSyncer() *gateSyncer {
	return &gateSyncer{entered: make(chan struct{}), result: make(chan error), done: make(chan struct{})}
}

func (g *gateSyncer) Write(p []byte) (int, error) { return len(p), nil }

func (g *gateSyncer) Sync() error {
	if !g.armed.Load() {
		return nil
	}
	select {
	case g.entered <- struct{}{}:
	case <-g.done:
		return nil
	}
	select {
	case err := <-g.result:
		return err
	case <-g.done:
		return nil
	}
}

func (g *gateSyncer) open() {
	g.once.Do(func() {
		g.armed.Store(false)
		close(g.done)
	})
}

// awaitSync waits until an armed Sync is blocked.
func (g *gateSyncer) awaitSync(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no group commit reached Sync")
	}
}

// asyncDo sends a request from its own goroutine and delivers the
// response status, or -1 on a transport error.
func asyncDo(method, url, body string) <-chan int {
	ch := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			ch <- -1
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	return ch
}

// waitUntil polls cond until it holds, failing after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// wantStatus receives a request's status, failing after 5s or on a
// mismatch.
func wantStatus(t *testing.T, what string, ch <-chan int, want int) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no response", what)
	}
}

// TestReadsDoNotWaitOnDepartureFsync is the regression test for the
// read stall: with a departure and an admission in flight and a group
// commit hung inside Sync, reads must still answer promptly. They did not
// while departures synced the log from their own handler: the placer (or
// the departure) then waited on the log's mutex while holding the
// controller write lock, queueing every read behind the fsync.
func TestReadsDoNotWaitOnDepartureFsync(t *testing.T) {
	gs := newGateSyncer()
	srv, _, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(gs)))
	for id := 1; id <= 2; id++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": id, "load": 0.2}, nil); code != 201 {
			t.Fatalf("place %d: %d", id, code)
		}
	}
	gs.armed.Store(true)
	defer gs.open()
	del := asyncDo("DELETE", srv.URL+"/v1/tenants/1", "")
	gs.awaitSync(t)
	enq := ctrl.tracer.enqueuedJobs.Load()
	admit := asyncDo("POST", srv.URL+"/v1/tenants", `{"id":3,"load":0.2}`)
	waitUntil(t, "the admission to enqueue", func() bool { return ctrl.tracer.enqueuedJobs.Load() > enq })

	// Reads are spread over ~100ms so some run after the queued admission
	// has reached the engine; passing never depends on that timing.
	client := &http.Client{Timeout: 2 * time.Second}
	for round := 0; round < 20; round++ {
		time.Sleep(5 * time.Millisecond)
		for _, path := range []string{"/v1/stats", "/v1/tenants/2"} {
			resp, err := client.Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s while a commit is in Sync: %v", path, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d", path, resp.StatusCode)
			}
		}
	}
	gs.open()
	wantStatus(t, "DELETE 1", del, http.StatusNoContent)
	wantStatus(t, "admit 3", admit, http.StatusCreated)
}

// TestDepartureAppliedInArrivalOrder: an admission of X and a DELETE of
// X that coalesce into one batch are applied in arrival order under one
// group commit, so the DELETE finds X (204) instead of answering 404
// while X's admission is still queued. The commit's size counts only the
// admission.
func TestDepartureAppliedInArrivalOrder(t *testing.T) {
	gs := newGateSyncer()
	srv, cf, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(gs)))
	gs.armed.Store(true)
	defer gs.open()
	first := asyncDo("POST", srv.URL+"/v1/tenants", `{"id":1,"load":0.3}`)
	gs.awaitSync(t) // the placer is parked in tenant 1's commit
	seq := ctrl.tracer.commitSeq.Load()

	admit := asyncDo("POST", srv.URL+"/v1/tenants", `{"id":7,"load":0.2}`)
	waitUntil(t, "admit 7 to queue", func() bool { return len(ctrl.queue) == 1 })
	del := asyncDo("DELETE", srv.URL+"/v1/tenants/7", "")
	waitUntil(t, "DELETE 7 to queue", func() bool { return len(ctrl.queue) == 2 })

	gs.open()
	wantStatus(t, "admit 1", first, http.StatusCreated)
	wantStatus(t, "admit 7", admit, http.StatusCreated)
	wantStatus(t, "DELETE 7", del, http.StatusNoContent)

	if _, ok := cf.Placement().Tenant(7); ok {
		t.Fatal("tenant 7 still placed after its acked departure")
	}
	if got := ctrl.tracer.commitSeq.Load(); got != seq+1 {
		t.Fatalf("commits after the stall = %d, want 1 (one group commit for the batch)", got-seq)
	}
	if _, recent := ctrl.tracer.commitRing.Snapshot(1); len(recent) != 1 || recent[0].Size != 1 {
		t.Fatalf("last commit = %+v, want size 1", recent)
	}
}

// TestFailedCommitUndoesBatchInReverse: when the group commit of a batch
// mixing departures and admissions fails, every item is answered 503 and
// undone in reverse arrival order — "admit 7, depart 7" leaves 7 absent,
// a departed tenant comes back, and the placement stays robust.
func TestFailedCommitUndoesBatchInReverse(t *testing.T) {
	gs := newGateSyncer()
	srv, cf, ctrl := newEngineServer(t, WithWAL(obs.NewWAL(gs)))
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "clients": 5}, nil); code != 201 {
		t.Fatalf("place 1: %d", code)
	}
	gs.armed.Store(true)
	defer gs.open()
	first := asyncDo("POST", srv.URL+"/v1/tenants", `{"id":2,"load":0.3}`)
	gs.awaitSync(t)

	var batch []<-chan int
	for i, r := range []struct{ method, path, body string }{
		{"DELETE", "/v1/tenants/1", ""},
		{"POST", "/v1/tenants", `{"id":7,"load":0.2}`},
		{"DELETE", "/v1/tenants/7", ""},
		{"POST", "/v1/tenants", `{"id":8,"load":0.4}`},
	} {
		batch = append(batch, asyncDo(r.method, srv.URL+r.path, r.body))
		waitUntil(t, fmt.Sprintf("item %d to queue", i), func() bool { return len(ctrl.queue) == i+1 })
	}

	gs.result <- nil // tenant 2's commit succeeds
	wantStatus(t, "admit 2", first, http.StatusCreated)
	gs.awaitSync(t) // the coalesced batch's commit
	gs.result <- errors.New("disk gone")
	for i, ch := range batch {
		wantStatus(t, fmt.Sprintf("batch item %d", i), ch, http.StatusServiceUnavailable)
	}

	p := cf.Placement()
	for _, id := range []packing.TenantID{7, 8} {
		if _, ok := p.Tenant(id); ok {
			t.Fatalf("tenant %d placed after its commit failed", id)
		}
	}
	if tn, ok := p.Tenant(1); !ok || tn.Clients != 5 {
		t.Fatalf("departed tenant 1 not re-admitted intact: %+v present=%v", tn, ok)
	}
	if _, ok := p.Tenant(2); !ok {
		t.Fatal("committed tenant 2 lost")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/tenants/7", nil, nil); code != 404 {
		t.Fatalf("GET tenant 7: %d, want 404", code)
	}
}

// noDepart is recordable but cannot remove tenants: attaching a WAL to it
// must be refused at construction, because the commit-failure rollback
// depends on Remove.
type noDepart struct{ cf *core.CubeFit }

func (n noDepart) Name() string                  { return "no-depart" }
func (n noDepart) Place(t packing.Tenant) error  { return n.cf.Place(t) }
func (n noDepart) Placement() *packing.Placement { return n.cf.Placement() }
func (n noDepart) SetRecorder(r obs.Recorder)    { n.cf.SetRecorder(r) }

func TestWALRequiresRemover(t *testing.T) {
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = NewController(noDepart{cf}, workload.DefaultLoadModel(), WithWAL(obs.NewWAL(&buf)))
	if err == nil {
		t.Fatal("WAL attached to an algorithm without Remove")
	}
}

// TestAdmissionsDuringDrill asserts the lock fix: exhaustive drills and
// repacks run off a snapshot clone, so admissions complete while they are
// in flight instead of queueing behind the read lock.
func TestAdmissionsDuringDrill(t *testing.T) {
	srv, _, _ := newEngineServer(t)
	for i := 0; i < 200; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("seed place %d failed", i)
		}
	}
	var wg sync.WaitGroup
	var admitted, drilled atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var dresp drillResponse
				if code := doJSON(t, "POST", srv.URL+"/v1/drill",
					map[string]any{"failures": 1}, &dresp); code != 200 {
					t.Errorf("drill: %d", code)
					return
				}
				drilled.Add(1)
				if code := doJSON(t, "POST", srv.URL+"/v1/repack", nil, nil); code != 200 {
					t.Errorf("repack: %d", code)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := 1000 + g*100 + i
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
					map[string]any{"id": id, "load": 0.1}, nil); code != 201 {
					t.Errorf("concurrent place %d: %d", id, code)
					return
				}
				admitted.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if admitted.Load() != 200 || drilled.Load() != 40 {
		t.Fatalf("admitted %d drilled %d", admitted.Load(), drilled.Load())
	}
}

// TestControllerClose verifies shutdown: queued admissions drain, later
// ones are refused, and Close is idempotent.
func TestControllerClose(t *testing.T) {
	srv, _, ctrl := newEngineServer(t)
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatal("pre-close admission failed")
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	var errResp errorResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 2, "load": 0.3}, &errResp); code != 503 {
		t.Fatalf("post-close admission status %d, want 503", code)
	}
	// A batch composed entirely of pre-rejected items must still resolve
	// (regression guard: such jobs bypass the engine but not the future).
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": []map[string]any{{"id": -1, "load": 0.2}}}, &bresp); code != 503 && code != 200 {
		t.Fatalf("post-close batch status %d", code)
	}
}

// TestSingleConcurrentAdmissions hammers the single endpoint from many
// goroutines: every admission must land exactly once and the final state
// must validate (raced in CI).
func TestSingleConcurrentAdmissions(t *testing.T) {
	srv, cf, _ := newEngineServer(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := g*per + i
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
					map[string]any{"id": id, "clients": 1 + id%15}, nil); code != 201 {
					t.Errorf("place %d: %d", id, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cf.Placement().NumTenants(); n != workers*per {
		t.Fatalf("tenants = %d, want %d", n, workers*per)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzPlaceBatch drives arbitrary bytes as the body of POST
// /v1/tenants:batch into a fresh controller. The decoder and per-item
// validation must never panic, the transport answers 200 or 400, every
// item carries a status of the single-endpoint contract (201, 400, 409,
// 422), placed and failed partition the results, and the placement stays
// robust.
func FuzzPlaceBatch(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"id":1,"load":0.3},{"id":2,"clients":8}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ctrl, err := NewDefaultController()
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Close()
		h := ctrl.Handler()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants:batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var resp batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode: %v", err)
			}
			if resp.Placed+resp.Failed != len(resp.Results) {
				t.Fatalf("placed %d + failed %d != %d results", resp.Placed, resp.Failed, len(resp.Results))
			}
			created := 0
			for i, res := range resp.Results {
				switch res.Status {
				case http.StatusCreated:
					created++
				case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
				default:
					t.Fatalf("item %d status %d", i, res.Status)
				}
			}
			if created != resp.Placed {
				t.Fatalf("%d items 201, placed %d", created, resp.Placed)
			}
		default:
			t.Fatalf("transport status %d: %s", rec.Code, rec.Body.Bytes())
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/validate", nil))
		var v struct {
			Robust bool `json:"robust"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK || !v.Robust {
			t.Fatalf("validate: %d %s", rec.Code, rec.Body.Bytes())
		}
	})
}
