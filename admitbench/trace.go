package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// The traced run times the calls into each layer from outside the
// program, through its public seams only: the controller's http.Handler,
// a packing.Algorithm decorator (with the recorder the controller hands
// it), an obs.CommitLog decorator around the WAL, and an in-memory
// obs.SpanRecorder. Counts and times are kept only while the tracer is
// armed, i.e. during the timed phase.

// engine is what the controller needs of CubeFit beyond packing.Algorithm:
// departures, the flight recorder and the admission-path hook.
type engine interface {
	packing.Algorithm
	Remove(packing.TenantID) error
	SetRecorder(obs.Recorder)
	SetAdmissionHook(func(core.AdmissionPath))
}

// tracer collects the per-layer measurements of one system under test.
type tracer struct {
	armed atomic.Bool

	places, placeNs, placeRecNs atomic.Int64
	removes, removeNs           atomic.Int64
	admitted, firstStage        atomic.Int64
	rejected                    atomic.Int64

	// recNs accumulates time inside the stamped recorder whether armed or
	// not, so a Place can subtract the recording done inside it.
	recNs        atomic.Int64
	armedRecNs   atomic.Int64
	events       atomic.Int64
	probes       atomic.Int64
	walRecordNs  atomic.Int64
	departs      atomic.Int64
	departNs     atomic.Int64
	mu           sync.Mutex
	syncs        []time.Duration
	placeTime    map[int]time.Duration
	spans        map[int]obs.Span
	handlerTimes map[uint64]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		placeTime:    make(map[int]time.Duration),
		spans:        make(map[int]obs.Span),
		handlerTimes: make(map[uint64]time.Duration),
	}
}

func (t *tracer) arm()    { t.armed.Store(true) }
func (t *tracer) disarm() { t.armed.Store(false) }

// wrapEngine returns the engine decorator the controller is built on.
func (t *tracer) wrapEngine(e engine) engine { return &tracedEngine{engine: e, t: t} }

// tracedEngine times Place and Remove and wraps the recorder and the
// admission hook the controller installs.
type tracedEngine struct {
	engine
	t *tracer
}

func (e *tracedEngine) Place(tn packing.Tenant) error {
	rec0 := e.t.recNs.Load()
	start := time.Now()
	err := e.engine.Place(tn)
	d := time.Since(start)
	if e.t.armed.Load() {
		e.t.places.Add(1)
		e.t.placeNs.Add(int64(d))
		e.t.placeRecNs.Add(e.t.recNs.Load() - rec0)
		e.t.mu.Lock()
		e.t.placeTime[int(tn.ID)] = d
		e.t.mu.Unlock()
	}
	return err
}

func (e *tracedEngine) Remove(id packing.TenantID) error {
	start := time.Now()
	err := e.engine.Remove(id)
	if e.t.armed.Load() {
		e.t.removes.Add(1)
		e.t.removeNs.Add(int64(time.Since(start)))
	}
	return err
}

func (e *tracedEngine) SetRecorder(r obs.Recorder) {
	e.engine.SetRecorder(&tracedRecorder{next: r, t: e.t})
}

func (e *tracedEngine) SetAdmissionHook(fn func(core.AdmissionPath)) {
	e.engine.SetAdmissionHook(func(p core.AdmissionPath) {
		if e.t.armed.Load() {
			switch p {
			case core.AdmitRejected:
				e.t.rejected.Add(1)
			case core.AdmitFirstStage:
				e.t.firstStage.Add(1)
				e.t.admitted.Add(1)
			default:
				e.t.admitted.Add(1)
			}
		}
		fn(p)
	})
}

// tracedRecorder times the whole stamped tee the controller builds: event
// ring, engine metric sink, headroom auditor and WAL.
type tracedRecorder struct {
	next obs.Recorder
	t    *tracer
}

func (r *tracedRecorder) Record(ev obs.Event) {
	start := time.Now()
	r.next.Record(ev)
	d := int64(time.Since(start))
	r.t.recNs.Add(d)
	if r.t.armed.Load() {
		r.t.armedRecNs.Add(d)
		r.t.events.Add(1)
		if ev.Kind == obs.KindStage1Probe {
			r.t.probes.Add(int64(ev.Probes))
		}
	}
}

// wrapLog returns the commit-log decorator around the WAL.
func (t *tracer) wrapLog(l obs.CommitLog) obs.CommitLog { return &tracedLog{CommitLog: l, t: t} }

// tracedLog times WAL event encoding (Record) and group commits (Sync).
type tracedLog struct {
	obs.CommitLog
	t *tracer
}

func (l *tracedLog) Record(ev obs.Event) {
	start := time.Now()
	l.CommitLog.Record(ev)
	if l.t.armed.Load() {
		l.t.walRecordNs.Add(int64(time.Since(start)))
	}
}

func (l *tracedLog) Sync() error {
	start := time.Now()
	err := l.CommitLog.Sync()
	if l.t.armed.Load() {
		d := time.Since(start)
		l.t.mu.Lock()
		l.t.syncs = append(l.t.syncs, d)
		l.t.mu.Unlock()
	}
	return err
}

// RecordSpan implements obs.SpanRecorder, keeping each admission's span by
// tenant.
func (t *tracer) RecordSpan(sp obs.Span) {
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	t.spans[sp.Tenant] = sp
	t.mu.Unlock()
}

// wrapHandler times the controller's handler: every DELETE for the
// departure layer, and every numbered request for the join with the
// client's round trip.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if !t.armed.Load() {
			return
		}
		if r.Method == http.MethodDelete {
			t.departs.Add(1)
			t.departNs.Add(int64(d))
		}
		if id := r.Header.Get(reqHeader); id != "" {
			n, err := parseReqID(id)
			if err != nil {
				return
			}
			t.mu.Lock()
			t.handlerTimes[n] = d
			t.mu.Unlock()
		}
	})
}

// layerTotals are the traced run's raw sums, added up over the systems of
// a run (batch-onboard builds one per round) before they become metrics.
type layerTotals struct {
	// Admission requests joined across client, handler, spans and engine;
	// the sums are in nanoseconds.
	joined, unjoined                                   int
	rtt, transport, wire, queue, placerWait, engineSum float64
	batchTail, fsync, ack                              float64
	commits, groupSum                                  float64

	places, placeNs, placeRecNs, removes, removeNs float64
	admitted, firstStage, rejected                 float64
	events, probes, recNs, walRecordNs             float64
	departs, departNs                              float64
	syncs                                          []time.Duration
}

// addTo adds the tracer's records, joined with the connections'
// requests, to lt. Call it after the system has shut down, when every
// handler has returned.
func (t *tracer) addTo(lt *layerTotals, conns []*conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt.places += float64(t.places.Load())
	lt.placeNs += float64(t.placeNs.Load())
	lt.placeRecNs += float64(t.placeRecNs.Load())
	lt.removes += float64(t.removes.Load())
	lt.removeNs += float64(t.removeNs.Load())
	lt.admitted += float64(t.admitted.Load())
	lt.firstStage += float64(t.firstStage.Load())
	lt.rejected += float64(t.rejected.Load())
	lt.events += float64(t.events.Load())
	lt.probes += float64(t.probes.Load())
	lt.recNs += float64(t.armedRecNs.Load())
	lt.walRecordNs += float64(t.walRecordNs.Load())
	lt.departs += float64(t.departs.Load())
	lt.departNs += float64(t.departNs.Load())
	lt.syncs = append(lt.syncs, t.syncs...)
	group := make(map[uint64]int)
	for _, sp := range t.spans {
		if sp.Commit != 0 {
			group[sp.Commit] = sp.Group
		}
	}
	for _, g := range group {
		lt.commits++
		lt.groupSum += float64(g)
	}
	for _, c := range conns {
		for _, rq := range c.reqs {
			if rq.Kind.isAdmit() && !t.join(lt, rq) {
				lt.unjoined++
			}
		}
	}
}

// join decomposes one admission request's round trip into its layers:
//
//	rtt = transport + wire + queue + placer wait + engine + batch tail + fsync + ack + residual
//
// transport is the round trip outside the handler, wire the handler time
// outside the pipeline span (decode, validation, response encode), queue,
// placer wait, batch tail, fsync and ack come from the spans of the
// request's tenants, and engine is the decorator's own timing of their
// Place calls. The residual
// is the placer's per-item work outside Place; it is reported, not
// absorbed. The caller holds t.mu.
func (t *tracer) join(lt *layerTotals, rq tracedReq) bool {
	h, ok := t.handlerTimes[rq.ID]
	if !ok {
		return false
	}
	var enq, deq, ps, pe, cs, ce, ack int64
	var engineNs time.Duration
	for i, tn := range rq.Tenants {
		sp, ok := t.spans[tn.ID]
		if !ok {
			return false
		}
		d, ok := t.placeTime[tn.ID]
		if !ok {
			return false
		}
		engineNs += d
		if i == 0 {
			enq, deq, ps, pe, cs, ce, ack = sp.EnqueueNs, sp.DequeueNs, sp.PlaceStartNs, sp.PlaceEndNs, sp.CommitStartNs, sp.CommitEndNs, sp.AckNs
			continue
		}
		enq, deq, ps = min(enq, sp.EnqueueNs), min(deq, sp.DequeueNs), min(ps, sp.PlaceStartNs)
		pe, cs, ce, ack = max(pe, sp.PlaceEndNs), max(cs, sp.CommitStartNs), max(ce, sp.CommitEndNs), max(ack, sp.AckNs)
	}
	lt.joined++
	lt.rtt += float64(rq.RTT)
	lt.transport += float64(rq.RTT - h)
	lt.wire += float64(h) - float64(ack-enq)
	lt.queue += float64(deq - enq)
	lt.placerWait += float64(ps - deq)
	lt.engineSum += float64(engineNs)
	lt.batchTail += float64(cs - pe)
	lt.fsync += float64(ce - cs)
	lt.ack += float64(ack - ce)
	return true
}

// reconciliation is the mean per-request decomposition of an admission's
// round trip, in microseconds.
type reconciliation struct {
	N                                                       int
	RTT, Transport, Wire, Queue, PlacerWait, Engine         float64
	BatchTail, Fsync, Ack, Residual, ResidualFrac, Unjoined float64
}

func (lt *layerTotals) reconcile() reconciliation {
	n := float64(lt.joined)
	us := func(ns float64) float64 { return ratio(ns, n) / 1e3 }
	r := reconciliation{
		N: lt.joined, RTT: us(lt.rtt), Transport: us(lt.transport), Wire: us(lt.wire),
		Queue: us(lt.queue), PlacerWait: us(lt.placerWait), Engine: us(lt.engineSum),
		BatchTail: us(lt.batchTail), Fsync: us(lt.fsync), Ack: us(lt.ack),
		Unjoined: float64(lt.unjoined),
	}
	r.Residual = r.RTT - (r.Transport + r.Wire + r.Queue + r.PlacerWait + r.Engine + r.BatchTail + r.Fsync + r.Ack)
	r.ResidualFrac = ratio(r.Residual, r.RTT)
	return r
}

// metrics returns the per-layer metrics of the api, core and obs layers
// and the reconciliation. mutations is the number of acked mutations of
// the timed phase.
func (lt *layerTotals) metrics(mutations float64) map[string]float64 {
	r := lt.reconcile()
	syncs := durations(lt.syncs)
	var syncSum float64
	for _, s := range syncs {
		syncSum += s
	}
	return map[string]float64{
		"api.transport_us":         r.Transport,
		"api.wire_us":              r.Wire,
		"api.queue_us":             r.Queue,
		"api.placer_wait_us":       r.PlacerWait,
		"api.batch_tail_us":        r.BatchTail,
		"api.ack_us":               r.Ack,
		"api.group_size":           ratio(lt.groupSum, lt.commits),
		"api.depart_us":            ratio(lt.departNs, lt.departs) / 1e3,
		"core.place_us":            ratio(lt.placeNs, lt.places) / 1e3,
		"core.self_us":             ratio(lt.placeNs-lt.placeRecNs, lt.places) / 1e3,
		"core.remove_us":           ratio(lt.removeNs, lt.removes) / 1e3,
		"core.probes_per_admit":    ratio(lt.probes, lt.admitted),
		"core.first_stage_frac":    ratio(lt.firstStage, lt.admitted),
		"core.reject_frac":         ratio(lt.rejected, lt.admitted+lt.rejected),
		"obs.events_per_op":        ratio(lt.events, mutations),
		"obs.record_us_per_op":     ratio(lt.recNs, mutations) / 1e3,
		"obs.wal_record_us_per_op": ratio(lt.walRecordNs, mutations) / 1e3,
		"obs.wal_syncs_per_op":     ratio(float64(len(syncs)), mutations),
		"obs.wal_sync_p50_us":      quantile(syncs, 0.50) / 1e3,
		"obs.wal_sync_p99_us":      quantile(syncs, 0.99) / 1e3,
		"obs.wal_sync_us_per_op":   ratio(syncSum, mutations) / 1e3,
		"trace.rtt_us":             r.RTT,
		"trace.engine_us":          r.Engine,
		"trace.fsync_us":           r.Fsync,
		"trace.residual_frac":      r.ResidualFrac,
		"trace.unjoined":           r.Unjoined,
	}
}
