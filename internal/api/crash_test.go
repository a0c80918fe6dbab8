package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/workload"
)

// errCrashed is what a crashed disk answers to every later call.
var errCrashed = errors.New("disk crashed")

// crashDisk is a WAL writer whose disk dies right after its crashAt-th
// Write or Sync call (never, when crashAt is 0). Bytes covered by a
// completed Sync are durable; bytes written since are pending, and a
// crash leaves only some prefix of them on disk. After the crash every
// Write and Sync fails, so the log turns sticky and the controller
// answers 503 from then on.
type crashDisk struct {
	mu      sync.Mutex
	crashAt int
	calls   int
	crashed bool
	synced  []byte
	pending []byte
}

func (d *crashDisk) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, errCrashed
	}
	d.pending = append(d.pending, p...)
	d.tick()
	return len(p), nil
}

func (d *crashDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return errCrashed
	}
	d.synced = append(d.synced, d.pending...)
	d.pending = nil
	d.tick()
	return nil
}

func (d *crashDisk) tick() {
	d.calls++
	if d.calls == d.crashAt {
		d.crashed = true
	}
}

// images returns the disk contents a crash can leave: the synced bytes
// followed by a prefix of the pending ones — none, each record boundary,
// the byte before it (a complete record missing its newline) and the
// middle of each record.
func (d *crashDisk) images() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	cuts := []int{0}
	start := 0
	for i, b := range d.pending {
		if b != '\n' {
			continue
		}
		if mid := (start + i) / 2; mid > start {
			cuts = append(cuts, mid)
		}
		cuts = append(cuts, i, i+1)
		start = i + 1
	}
	if start < len(d.pending) {
		cuts = append(cuts, (start+len(d.pending))/2, len(d.pending))
	}
	out := make([][]byte, 0, len(cuts))
	for _, c := range cuts {
		img := append([]byte(nil), d.synced...)
		out = append(out, append(img, d.pending[:c]...))
	}
	return out
}

// crashStep is one request of the scripted workload.
type crashStep struct {
	method, path, body string
}

// crashScript mixes single admissions, batches and departures; every
// mutation is its own group commit. Tenant ids are never reused, so an
// acked departure must stay absent.
func crashScript() []crashStep {
	batch := func(ids ...int) crashStep {
		items := make([]string, len(ids))
		for i, id := range ids {
			if id%2 == 0 {
				items[i] = fmt.Sprintf(`{"id":%d,"clients":%d}`, id, 1+(7*id)%15)
			} else {
				items[i] = fmt.Sprintf(`{"id":%d,"load":%g}`, id, 0.05+float64(id%9)*0.04)
			}
		}
		return crashStep{"POST", "/v1/tenants:batch", `{"tenants":[` + strings.Join(items, ",") + `]}`}
	}
	depart := func(id int) crashStep { return crashStep{"DELETE", fmt.Sprintf("/v1/tenants/%d", id), ""} }
	return []crashStep{
		{"POST", "/v1/tenants", `{"id":0,"clients":3}`},
		{"POST", "/v1/tenants", `{"id":1,"load":0.3}`},
		batch(2, 3, 4, 5, 6, 7),
		depart(1),
		{"POST", "/v1/tenants", `{"id":8,"clients":9}`},
		batch(9, 10, 11, 12),
		depart(4),
		depart(9),
		{"POST", "/v1/tenants", `{"id":13,"load":0.45}`},
		batch(14, 15, 16, 17),
		depart(0),
	}
}

// crashOutcome is what the clients of one crashed run were told.
type crashOutcome struct {
	acked     map[int][]int // admitted tenant -> acked hosts
	departed  map[int]bool  // acked departures
	leaving   map[int]bool  // departures attempted, acked or not
	attempted map[int]bool  // every tenant an admission named
}

// runCrashScript drives the script through a fresh durable controller
// over disk and closes it, returning what was acked.
func runCrashScript(t *testing.T, cfg core.Config, disk *crashDisk) crashOutcome {
	t.Helper()
	cf, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(obs.NewWAL(disk)), WithoutSpanTracing())
	if err != nil {
		t.Fatal(err)
	}
	h := ctrl.Handler()
	out := crashOutcome{acked: map[int][]int{}, departed: map[int]bool{}, leaving: map[int]bool{}, attempted: map[int]bool{}}
	for _, s := range crashScript() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(s.method, s.path, strings.NewReader(s.body)))
		switch {
		case s.method == "DELETE":
			var id int
			if _, err := fmt.Sscanf(s.path, "/v1/tenants/%d", &id); err != nil {
				t.Fatal(err)
			}
			out.leaving[id] = true
			if rr.Code == http.StatusNoContent {
				delete(out.acked, id)
				out.departed[id] = true
			}
		case strings.HasSuffix(s.path, ":batch"):
			var req struct{ Tenants []struct{ ID int } }
			if err := json.Unmarshal([]byte(s.body), &req); err != nil {
				t.Fatal(err)
			}
			for _, tn := range req.Tenants {
				out.attempted[tn.ID] = true
			}
			var resp batchResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch response %d: %v", rr.Code, err)
			}
			for _, r := range resp.Results {
				if r.Status == http.StatusCreated {
					out.acked[r.ID] = r.Servers
				}
			}
		default:
			var req struct{ ID int }
			if err := json.Unmarshal([]byte(s.body), &req); err != nil {
				t.Fatal(err)
			}
			out.attempted[req.ID] = true
			if rr.Code == http.StatusCreated {
				var resp placeResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				out.acked[resp.ID] = resp.Servers
			}
		}
	}
	// A crashed disk fails the final commit; the acks above are what count.
	_ = ctrl.Close()
	return out
}

// TestCrashPointEnumeration crashes the log's disk after every Write and
// Sync call of a scripted workload in turn, and recovers from every disk
// image each crash can leave. Every acked admission must come back on its
// acked hosts, every acked departure must stay gone, nothing that was
// never attempted may appear, and the boot sequence's truncate, reopen
// and append must leave a log that recovers again.
func TestCrashPointEnumeration(t *testing.T) {
	cfg := core.Config{Gamma: 2, K: 10}
	clean := &crashDisk{}
	runCrashScript(t, cfg, clean)
	total := clean.calls
	if total < 2*len(crashScript()) {
		t.Fatalf("clean run made %d Write/Sync calls, want at least %d", total, 2*len(crashScript()))
	}
	dir := t.TempDir()
	images := 0
	for k := 1; k <= total; k++ {
		disk := &crashDisk{crashAt: k}
		out := runCrashScript(t, cfg, disk)
		for i, img := range disk.images() {
			images++
			name := fmt.Sprintf("crash after call %d, image %d (%d bytes)", k, i, len(img))
			path := filepath.Join(dir, fmt.Sprintf("wal-%d-%d", k, i))
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			cf, st, err := recovery.FromFile(path, cfg)
			if err != nil {
				t.Fatalf("%s: recovery: %v", name, err)
			}
			checkCrashRecovery(t, name, cf.Placement(), out)

			// Second boot: cut to the committed prefix, append through a
			// fresh controller, and recover once more.
			if _, err := obs.TruncateWAL(path, st.CommittedBytes); err != nil {
				t.Fatalf("%s: truncate: %v", name, err)
			}
			wal, err := obs.OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(wal), WithoutSpanTracing())
			if err != nil {
				t.Fatal(err)
			}
			rr := httptest.NewRecorder()
			ctrl.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/tenants", strings.NewReader(`{"id":1000,"load":0.2}`)))
			if rr.Code != http.StatusCreated {
				t.Fatalf("%s: post-recovery admission status %d: %s", name, rr.Code, rr.Body)
			}
			if err := ctrl.Close(); err != nil {
				t.Fatal(err)
			}
			again, _, err := recovery.FromFile(path, cfg)
			if err != nil {
				t.Fatalf("%s: second recovery: %v", name, err)
			}
			if got, want := again.Placement().Tenants(), cf.Placement().Tenants(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: second recovery holds %v, first boot served %v", name, got, want)
			}
			for _, tn := range cf.Placement().Tenants() {
				if got, want := again.Placement().TenantHosts(tn.ID), cf.Placement().TenantHosts(tn.ID); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: second recovery moved tenant %d from %v to %v", name, tn.ID, want, got)
				}
			}
		}
	}
	t.Logf("%d crash points, %d disk images", total, images)
}

// checkCrashRecovery holds a recovered placement to what was acked. A
// departure that failed with 503 may still have reached the log, so its
// tenant may be absent; if present, it sits on its acked hosts.
func checkCrashRecovery(t *testing.T, name string, p *packing.Placement, out crashOutcome) {
	t.Helper()
	for id, hosts := range out.acked {
		got := p.TenantHosts(packing.TenantID(id))
		if got == nil && out.leaving[id] {
			continue
		}
		if !reflect.DeepEqual(got, hosts) {
			t.Fatalf("%s: acked tenant %d recovered on %v, acked on %v", name, id, got, hosts)
		}
	}
	for id := range out.departed {
		if _, ok := p.Tenant(packing.TenantID(id)); ok {
			t.Fatalf("%s: acked departure of tenant %d undone by recovery", name, id)
		}
	}
	for _, tn := range p.Tenants() {
		if !out.attempted[int(tn.ID)] {
			t.Fatalf("%s: recovered tenant %d was never attempted", name, tn.ID)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: recovered placement invalid: %v", name, err)
	}
}
