package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"time"

	"cubefit/internal/clock"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
)

// histPrev keeps one histogram child's previous bucket counts plus a
// reusable delta buffer, so per-tick percentile estimation allocates
// only when a histogram grows a new child.
type histPrev struct {
	counts []uint64
	delta  []uint64
}

// Monitor is the live telemetry loop: scrape the registry, feed the rule
// engine, expose the verdict, and stream the sample/transition log.
// Construct with New, then either Start the background loop or drive
// Tick directly (tests, single-shot probes).
type Monitor struct {
	reg *metrics.Registry
	clk clock.Clock
	// base anchors the monotonic nanosecond scale of every sample.
	base time.Time
	// hooks run before each scrape (process-metrics refresh, WAL gauge);
	// fixed after construction.
	hooks []func()
	// sink receives sample and transition records; fixed after
	// construction, nil to disable logging.
	sink        obs.HealthRecorder
	burnTargets map[string]bool

	mu sync.Mutex
	//cubefit:guarded-by mu
	eng *engine
	//cubefit:guarded-by mu
	prevHist map[string]*histPrev
	//cubefit:guarded-by mu
	configWritten bool
	//cubefit:guarded-by mu
	running bool
	//cubefit:guarded-by mu
	stop chan struct{}
	//cubefit:guarded-by mu
	done chan struct{}
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithSink streams every tick's samples and every state transition to
// rec (the configuration is written first, once).
func WithSink(rec obs.HealthRecorder) Option {
	return func(m *Monitor) { m.sink = rec }
}

// WithHook runs f before every scrape, for metrics that are computed on
// demand rather than maintained on the hot path.
func WithHook(f func()) Option {
	return func(m *Monitor) { m.hooks = append(m.hooks, f) }
}

// New builds a Monitor sampling reg on clk. The background loop does not
// run until Start.
func New(reg *metrics.Registry, cfg Config, clk clock.Clock, opts ...Option) *Monitor {
	eng := newEngine(cfg)
	m := &Monitor{
		reg:         reg,
		clk:         clk,
		base:        clk.Now(),
		eng:         eng,
		prevHist:    make(map[string]*histPrev),
		burnTargets: make(map[string]bool),
	}
	for _, t := range eng.cfg.Burn.Targets {
		m.burnTargets[t] = true
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Config returns the effective (default-filled) configuration.
func (m *Monitor) Config() Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.cfg
}

// Start launches the background sampling loop (idempotent).
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	interval := m.eng.cfg.Interval
	m.mu.Unlock()
	go m.run(interval, stop, done)
}

func (m *Monitor) run(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			m.Tick()
		}
	}
}

// Stop halts the background loop and waits for it (idempotent; a Monitor
// that never started is a no-op).
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// Tick performs one sample-evaluate cycle: run the pre-sample hooks,
// snapshot the registry, derive the tick's series values, feed the rule
// engine, and stream the records. Safe to call concurrently with the
// background loop and with registry writers.
func (m *Monitor) Tick() {
	for _, h := range m.hooks {
		h()
	}
	snap := m.reg.Snapshot()
	m.mu.Lock()
	m.writeConfigLocked()
	nowNs := m.clk.Since(m.base).Nanoseconds()
	values := m.scrapeLocked(snap, nowNs)
	tNs, tr := m.eng.ingest(nowNs, values)
	m.mu.Unlock()
	if m.sink == nil {
		return
	}
	m.sink.Record(obs.HealthRecord{Kind: obs.HealthKindSample, TNs: tNs, Values: values})
	if tr != nil {
		m.sink.Record(obs.HealthRecord{
			Kind: obs.HealthKindTransition, TNs: tr.TNs,
			From: tr.From.String(), To: tr.To.String(),
			Rules: tr.Rules, Evidence: tr.Evidence,
		})
	}
}

// writeConfigLocked emits the config record once, before any sample, so
// a replay rebuilds the identical rule engine.
func (m *Monitor) writeConfigLocked() {
	if m.configWritten || m.sink == nil {
		return
	}
	m.configWritten = true
	raw, err := json.Marshal(m.eng.cfg)
	if err != nil {
		// Config is a fixed flat struct; marshalling cannot fail in
		// practice, and a missing config record is detected by Replay.
		return
	}
	m.sink.Record(obs.HealthRecord{Kind: obs.HealthKindConfig, Config: raw})
}

// scrapeLocked turns one registry snapshot into the tick's series
// values: counters keep their cumulative value plus a derived ":rate"
// per second; gauges sample directly; histogram children derive
// ":count" (cumulative), ":p50"/":p99" (estimated over this tick's
// bucket delta), and — for burn targets — ":good" (cumulative
// observations at or under the objective). Values are sanitized so the
// map always marshals (no NaN/Inf).
func (m *Monitor) scrapeLocked(snap []metrics.FamilySnapshot, nowNs int64) map[string]float64 {
	values := make(map[string]float64, 64)
	objective := m.eng.cfg.Burn.Objective.Seconds()
	for _, fam := range snap {
		for _, s := range fam.Samples {
			key := metrics.SeriesKey(fam.Name, s.Labels)
			switch s.Kind {
			case metrics.KindCounterSample:
				values[key] = sanitize(s.Value)
				if tl, vl, ok := m.eng.store.lookup(key).latest(); ok && nowNs > tl {
					values[key+":rate"] = sanitize((s.Value - vl) / (float64(nowNs-tl) / 1e9))
				}
			case metrics.KindGaugeSample:
				values[key] = sanitize(s.Value)
			case metrics.KindHistogramSample:
				m.scrapeHistogramLocked(values, key, s.Hist, objective)
			}
		}
	}
	return values
}

func (m *Monitor) scrapeHistogramLocked(values map[string]float64, key string, h metrics.HistogramSnapshot, objective float64) {
	values[key+":count"] = float64(h.Count)
	prev := m.prevHist[key]
	if prev == nil || len(prev.counts) != len(h.Counts) {
		prev = &histPrev{counts: make([]uint64, len(h.Counts)), delta: make([]uint64, len(h.Counts))}
		m.prevHist[key] = prev
	}
	for i, c := range h.Counts {
		if c >= prev.counts[i] {
			prev.delta[i] = c - prev.counts[i]
		} else {
			prev.delta[i] = c // counter reset (new registry); treat as fresh
		}
		prev.counts[i] = c
	}
	values[key+":p50"] = sanitize(metrics.QuantileFromBuckets(h.Bounds, prev.delta, 0.50))
	values[key+":p99"] = sanitize(metrics.QuantileFromBuckets(h.Bounds, prev.delta, 0.99))
	if m.burnTargets[key] {
		var good uint64
		for i, b := range h.Bounds {
			if b > objective {
				break
			}
			good += h.Counts[i]
		}
		values[key+":good"] = float64(good)
	}
}

// sanitize maps NaN/±Inf to 0 so sample records always marshal and ring
// math stays finite.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Status reports the current verdict, firing rules, and recent
// transitions.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{
		State:            m.eng.state,
		Ticks:            m.eng.ticks,
		Findings:         append([]Finding(nil), m.eng.findings...),
		Transitions:      append([]Transition(nil), m.eng.transitions...),
		TransitionsTotal: m.eng.transitionsTotal,
	}
}

// State returns the current health state.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.state
}

// Timeline returns series' retained samples from the last window
// (window ≤ 0 returns everything retained) and whether the series
// exists.
func (m *Monitor) Timeline(series string, window time.Duration) ([]Point, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.eng.store.lookup(series)
	if r == nil {
		return nil, false
	}
	cut := int64(0)
	if window > 0 {
		cut = m.eng.lastNs - window.Nanoseconds()
	}
	return r.since(cut), true
}

// SeriesKeys lists every series the sampler has seen, sorted.
func (m *Monitor) SeriesKeys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.store.keys()
}
