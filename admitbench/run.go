package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cubefit/internal/obs"
	"cubefit/internal/recovery"
	"cubefit/internal/rng"
	"cubefit/internal/telemetry"
)

const (
	// conns is the number of sender goroutines, each with one connection:
	// at most the core count of the 2-core reference machine.
	conns = 2
	// batchSize is the tenants per POST /v1/tenants:batch.
	batchSize = 64
)

// workloadDef is one named workload.
type workloadDef struct {
	// Exactly one of Churn and Batch is set.
	Churn *churnSpec
	Batch *batchSpec
	// Setups is how many times a run (each round, for batch-onboard)
	// builds and prefills its system; setup_s is the median of their CPU
	// times, and the last system is timed.
	Setups int
	// Recoveries is how many times each system's log is recovered;
	// recover_cpu_s is the median over the run.
	Recoveries int
}

var workloads = map[string]workloadDef{
	"batch-onboard": {
		Batch:      &batchSpec{Tenants: 16384, Reads: 2048, Departs: 1024},
		Setups:     5,
		Recoveries: 1,
	},
	"churn-small": {
		Churn:      &churnSpec{Population: 2000, Rate: 1500},
		Setups:     9,
		Recoveries: 11,
	},
	"churn-large": {
		Churn:      &churnSpec{Population: 100000, Rate: 750},
		Setups:     3,
		Recoveries: 1,
	},
}

// runResult accumulates one benchmark run (all rounds of batch-onboard).
type runResult struct {
	// Wall-clock and CPU seconds of each set-up and recovery.
	setupS, setupCPU     []float64
	recoverS, recoverCPU []float64

	samples  []sample
	tputs    []float64
	heapMB   []float64
	perLoad  []float64
	logBytes float64
	acked    float64 // acked mutations in the logs, set-up included

	attempted, failed int
	errs              []string

	// Timed-phase runtime deltas and tenant-level operations.
	allocBytes, gcCycles, gcPauseNs, tenantOps float64
	// cpuNs is the process CPU time of the timed phases.
	cpuNs float64

	// Traced run only.
	layers                     layerTotals
	decodeS, rebuildS, verifyS []float64
	transitions, critical      float64
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrors {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// bench runs a workload against fresh systems in workdir.
type bench struct {
	def     workloadDef
	workdir string
	traced  bool
	res     runResult
}

func (b *bench) walPath() string { return filepath.Join(b.workdir, "bench.wal") }

// system is one built system under test with its senders.
type system struct {
	sut   *sut
	conns []*conn
	tr    *tracer
}

// start builds a system on an empty log and admits the prefill, recording
// the set-up time.
func (b *bench) start(prefill [][]op) (*system, error) {
	sys := &system{}
	// Collect the previous system's garbage and return it to the OS first.
	// Otherwise the collection, and the runtime's background scavenging of
	// the memory it frees, would be charged to this set-up.
	debug.FreeOSMemory()
	t0, c0 := time.Now(), cpuTime()
	if err := os.Remove(b.walPath()); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if b.traced {
		sys.tr = newTracer()
	}
	s, err := startSUT(b.walPath(), sys.tr)
	if err != nil {
		return nil, err
	}
	sys.sut = s
	for i := 0; i < conns; i++ {
		c := newConn(i, s.base, engineConfig.Gamma)
		c.traced = b.traced
		sys.conns = append(sys.conns, c)
	}
	if prefill != nil {
		runPhase(sys.conns, prefill, false)
		for _, c := range sys.conns {
			c.reqs = c.reqs[:0] // the layer join covers the timed phase only
		}
	}
	b.res.setupS = append(b.res.setupS, time.Since(t0).Seconds())
	b.res.setupCPU = append(b.res.setupCPU, (cpuTime() - c0).Seconds())
	return sys, nil
}

// setUp builds and prefills a system def.Setups times, timing each
// set-up, and returns the last system.
func (b *bench) setUp(prefill [][]op) (*system, error) {
	var sys *system
	for i := 0; i < b.def.Setups; i++ {
		if sys != nil {
			b.collect(sys)
			if err := sys.sut.remove(); err != nil {
				return nil, err
			}
		}
		var err error
		if sys, err = b.start(prefill); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// timed runs ops as the timed phase and returns its duration.
func (b *bench) timed(sys *system, ops [][]op, open bool) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if sys.tr != nil {
		sys.tr.arm()
	}
	c0 := cpuTime()
	samples, elapsed := runPhase(sys.conns, ops, open)
	b.res.cpuNs += float64(cpuTime() - c0)
	if sys.tr != nil {
		sys.tr.disarm()
	}
	runtime.ReadMemStats(&m1)
	b.res.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	b.res.gcCycles += float64(m1.NumGC - m0.NumGC)
	b.res.gcPauseNs += float64(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, s := range samples {
		switch {
		case !s.OK:
		case s.Kind.isAdmit():
			b.res.tenantOps += float64(s.Acked)
		default:
			b.res.tenantOps++
		}
	}
	b.res.samples = append(b.res.samples, samples...)
	return elapsed
}

// finish checks the system's end state and recovers its log while the
// system still serves, shuts it down, deletes the log, and records the
// system's heap.
//
// heap_mb is the live heap the system frees when it is dropped: the live
// heap while it still serves less the live heap once it is gone. The
// harness's own state (samples, generated operations, the record of acked
// placements) is live at both reads and so is left out. The first read
// comes after the recovery so that every system has run for more than one
// health-loop interval: the health monitor allocates its series rings at
// its first tick.
func (b *bench) finish(sys *system) error {
	b.res.attempted++
	end, endErr := sys.sut.captureEnd()
	if endErr != nil {
		b.res.fail("end state: %v", endErr)
	} else {
		b.res.attempted++
		if err := b.recoverLog(end, sys.conns); err != nil {
			b.res.fail("recovery: %v", err)
		}
	}
	b.res.perLoad = append(b.res.perLoad, ratio(float64(end.stats.UsedServers), end.stats.TotalLoad))
	serving := liveHeap()
	if sys.tr != nil {
		var h healthReply
		if err := sys.sut.getJSON("/debug/health", &h); err != nil {
			return err
		}
		b.res.transitions += float64(h.TransitionsTotal)
		for _, t := range h.Transitions {
			if t.To == telemetry.Critical {
				b.res.critical++
			}
		}
	}
	if err := sys.sut.close(); err != nil {
		return err
	}
	b.collect(sys)
	for _, c := range sys.conns {
		b.res.acked += float64(c.mutations)
	}
	fi, err := os.Stat(b.walPath())
	if err != nil {
		return err
	}
	b.res.logBytes += float64(fi.Size())
	if sys.tr != nil {
		if err := b.traceRecovery(); err != nil {
			return err
		}
		sys.tr.addTo(&b.res.layers, sys.conns)
	}
	if err := sys.sut.remove(); err != nil {
		return err
	}
	sys.sut, sys.tr = nil, nil
	b.res.heapMB = append(b.res.heapMB, (float64(serving)-float64(liveHeap()))/(1<<20))
	return nil
}

// liveHeap returns the live Go heap after forced collections. The second
// collection empties the sync.Pool victim caches the first one left, so
// recently pooled buffers do not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// collect closes the system's connections and counts their requests and
// failures.
func (b *bench) collect(sys *system) {
	for _, c := range sys.conns {
		c.close()
		b.res.attempted += c.attempts
		b.res.failed += c.fails
		for _, e := range c.errs {
			if len(b.res.errs) < maxErrors {
				b.res.errs = append(b.res.errs, e)
			}
		}
	}
}

// recoverLog times recovery.FromFile on the log def.Recoveries times and
// checks the first result against the end state.
func (b *bench) recoverLog(end endState, conns []*conn) error {
	for i := 0; i < b.def.Recoveries; i++ {
		// A restart begins with an empty heap (see start).
		debug.FreeOSMemory()
		t0, c0 := time.Now(), cpuTime()
		cf, _, err := recovery.FromFile(b.walPath(), engineConfig)
		if err != nil {
			return err
		}
		b.res.recoverS = append(b.res.recoverS, time.Since(t0).Seconds())
		b.res.recoverCPU = append(b.res.recoverCPU, (cpuTime() - c0).Seconds())
		if i == 0 {
			if err := checkRecovered(cf, end, conns); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceRecovery times recovery's three steps as separate calls.
func (b *bench) traceRecovery() error {
	f, err := os.Open(b.walPath())
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	events, _, _, err := obs.ReadWALOffsets(f)
	t1 := time.Now()
	if err != nil {
		return err
	}
	cf, _, err := recovery.Rebuild(events, engineConfig)
	t2 := time.Now()
	if err != nil {
		return err
	}
	if err := recovery.Verify(cf, events); err != nil {
		return err
	}
	t3 := time.Now()
	b.res.decodeS = append(b.res.decodeS, t1.Sub(t0).Seconds())
	b.res.rebuildS = append(b.res.rebuildS, t2.Sub(t1).Seconds())
	b.res.verifyS = append(b.res.verifyS, t3.Sub(t2).Seconds())
	return nil
}

// runPhase sends each connection's ops from its own goroutine and returns
// every sample and the phase's duration (to the last completion).
func runPhase(cs []*conn, ops [][]op, open bool) ([]sample, time.Duration) {
	clk := newRealClock()
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if open {
				per[i] = runOpen(clk, ops[i], c.exec)
			} else {
				per[i] = runClosed(clk, ops[i], c.exec)
			}
		}()
	}
	wg.Wait()
	var all []sample
	var elapsed time.Duration
	for _, ss := range per {
		all = append(all, ss...)
		if n := len(ss); n > 0 {
			elapsed = max(elapsed, ss[n-1].End)
		}
	}
	return all, elapsed
}

// runChurn builds the churn system def.Setups times, then runs the
// open-loop schedule on the last one.
func (b *bench) runChurn(seed uint64, seconds time.Duration) error {
	def := b.def
	spec := *def.Churn
	spec.Duration = seconds
	load := genChurn(seed, spec)
	sys, err := b.setUp(load.Prefill)
	if err != nil {
		return err
	}
	elapsed := b.timed(sys, load.Ops, true)
	acked := 0
	for _, s := range b.res.samples {
		if s.Kind.isAdmit() {
			acked += s.Acked
		}
	}
	b.res.tputs = append(b.res.tputs, ratio(float64(acked), elapsed.Seconds()))
	return b.finish(sys)
}

// runBatch repeats batch-onboard rounds, each on a fresh empty system,
// until the timed phases add up to seconds.
func (b *bench) runBatch(seed uint64, seconds time.Duration) error {
	def := b.def
	r := rng.New(seed)
	var spent time.Duration
	for spent < seconds {
		round := genBatchRound(r, *def.Batch)
		sys, err := b.setUp(nil)
		if err != nil {
			return err
		}
		n0 := len(b.res.samples)
		admitPhase := b.timed(sys, round.Admit, false)
		tail := b.timed(sys, round.Tail, false)
		spent += admitPhase + tail
		acked := 0
		for _, s := range b.res.samples[n0:] {
			acked += s.Acked
		}
		b.res.tputs = append(b.res.tputs, ratio(float64(acked), admitPhase.Seconds()))
		if err := b.finish(sys); err != nil {
			return err
		}
	}
	return nil
}
