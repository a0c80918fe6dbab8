package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"time"

	"cubefit/internal/api"
	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/telemetry"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

// engineConfig is cubefit-server's default engine: γ=2 replicas, K=10
// classes.
var engineConfig = core.Config{Gamma: 2, K: 10}

// sut is the system under test: the durable controller cubefit-server
// builds for `-wal <path>` with its default flags, served on a loopback
// listener. The server's per-request log middleware is left out; it
// belongs to the command, not the controller.
type sut struct {
	walPath string
	ctrl    *api.Controller
	srv     *http.Server
	served  chan error
	base    string
	closed  bool
}

// startSUT builds the controller over the (absent) log at walPath the way
// cubefit-server boots: recover, open the log for append, attach it with
// the default health configuration and loop, and serve. A non-nil tracer
// wraps the engine, the log, the span sink and the handler.
func startSUT(walPath string, tr *tracer) (*sut, error) {
	cf, _, err := recovery.FromFile(walPath, engineConfig)
	if err != nil {
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	wal, err := obs.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	var (
		alg  packing.Algorithm = cf
		log  obs.CommitLog     = wal
		opts []api.Option
	)
	if tr != nil {
		alg = tr.wrapEngine(cf)
		log = tr.wrapLog(wal)
		opts = append(opts, api.WithSpanSink(tr))
	}
	hcfg := telemetry.DefaultConfig()
	hcfg.Headroom.Floor = headroom.DefaultRedLine
	opts = append(opts, api.WithWAL(log), api.WithHealthConfig(hcfg), api.WithHealthLoop())
	ctrl, err := api.NewController(alg, workload.DefaultLoadModel(), opts...)
	if err != nil {
		return nil, errors.Join(err, wal.Close())
	}
	ctrl.SetHeadroomRedLine(headroom.DefaultRedLine)
	var h http.Handler = ctrl.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, ctrl.Close())
	}
	s := &sut{
		walPath: walPath, ctrl: ctrl, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		// cubefit-server's timeouts.
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, drains the admission pipeline and makes
// the log's final commit. It is idempotent.
func (s *sut) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.ctrl.Close())
}

// remove closes the system and deletes its log.
func (s *sut) remove() error {
	err := s.close()
	if rerr := os.Remove(s.walPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		err = errors.Join(err, rerr)
	}
	return err
}

// getJSON decodes GET path into v, requiring status 200.
func (s *sut) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// statsReply is the part of GET /v1/stats the benchmark reads.
type statsReply struct {
	UsedServers int     `json:"usedServers"`
	TotalLoad   float64 `json:"totalLoad"`
}

// validateReply is GET /v1/validate.
type validateReply struct {
	Robust bool `json:"robust"`
}

// healthReply is the part of GET /debug/health the traced run reads.
type healthReply struct {
	TransitionsTotal uint64                 `json:"transitionsTotal"`
	Transitions      []telemetry.Transition `json:"transitions"`
}

// endState is what the correctness check compares recovery against.
type endState struct {
	snapshot trace.Snapshot
	stats    statsReply
}

// captureEnd checks GET /v1/validate and records the controller's final
// placement while it still serves.
func (s *sut) captureEnd() (endState, error) {
	var v validateReply
	if err := s.getJSON("/v1/validate", &v); err != nil {
		return endState{}, err
	}
	if !v.Robust {
		return endState{}, errors.New("GET /v1/validate: robust:false")
	}
	var end endState
	if err := s.getJSON("/v1/placement", &end.snapshot); err != nil {
		return endState{}, err
	}
	if err := s.getJSON("/v1/stats", &end.stats); err != nil {
		return endState{}, err
	}
	return end, nil
}

// checkRecovered verifies that an engine recovered from the log holds
// exactly the controller's final placement, the acked servers of every
// live tenant, and none of the acked departures.
func checkRecovered(cf *core.CubeFit, end endState, conns []*conn) error {
	p := cf.Placement()
	if got := trace.Capture(p); !reflect.DeepEqual(got, end.snapshot) {
		return fmt.Errorf("recovered placement differs from the controller's (%d vs %d tenants, %d vs %d servers)",
			len(got.Tenants), len(end.snapshot.Tenants), len(got.Servers), len(end.snapshot.Servers))
	}
	live := 0
	for _, c := range conns {
		live += len(c.hosts)
		for id, hosts := range c.hosts {
			if got := p.TenantHosts(packing.TenantID(id)); !slices.Equal(got, hosts) {
				return fmt.Errorf("tenant %d recovered on %v, acked on %v", id, got, hosts)
			}
		}
		for id := range c.departed {
			if _, ok := p.Tenant(packing.TenantID(id)); ok {
				return fmt.Errorf("departed tenant %d recovered", id)
			}
		}
	}
	if p.NumTenants() != live {
		return fmt.Errorf("recovered %d tenants, %d acked live", p.NumTenants(), live)
	}
	return nil
}
