package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"cubefit/internal/rng"
)

var testChurn = churnSpec{Population: 300, Rate: 2000, Duration: 2 * time.Second}

func TestSameSeedSameOps(t *testing.T) {
	a, b := genChurn(7, testChurn), genChurn(7, testChurn)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genChurn: same seed, different operations")
	}
	if c := genChurn(8, testChurn); reflect.DeepEqual(a, c) {
		t.Fatal("genChurn: different seeds, same operations")
	}
	spec := batchSpec{Tenants: 1000, Reads: 100, Departs: 50}
	if !reflect.DeepEqual(genBatchRound(rng.New(7), spec), genBatchRound(rng.New(7), spec)) {
		t.Fatal("genBatchRound: same seed, different operations")
	}
}

// mergeByDue flattens per-connection ops into one schedule.
func mergeByDue(perConn [][]op) []op {
	var all []op
	for _, ops := range perConn {
		all = append(all, ops...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Due < all[j].Due })
	return all
}

func TestChurnHoldsPopulation(t *testing.T) {
	load := genChurn(3, testChurn)
	live := map[int]bool{}
	for _, ops := range load.Prefill {
		for _, o := range ops {
			for _, tn := range o.Tenants {
				live[tn.ID] = true
			}
		}
	}
	if len(live) != testChurn.Population {
		t.Fatalf("prefill admits %d tenants, want %d", len(live), testChurn.Population)
	}
	var counts [numOpKinds]int
	for i, o := range mergeByDue(load.Ops) {
		counts[o.Kind]++
		id := o.Tenants[0].ID
		switch o.Kind {
		case opAdmit:
			if live[id] {
				t.Fatalf("op %d admits live tenant %d", i, id)
			}
			live[id] = true
		case opDepart:
			if !live[id] {
				t.Fatalf("op %d departs tenant %d, not live", i, id)
			}
			delete(live, id)
		case opRead:
			if !live[id] {
				t.Fatalf("op %d reads tenant %d, not live", i, id)
			}
		}
		if d := len(live) - testChurn.Population; d < -1 || d > 1 {
			t.Fatalf("after op %d the population is %d, target %d", i, len(live), testChurn.Population)
		}
	}
	n := counts[opAdmit] + counts[opDepart] + counts[opRead]
	want := testChurn.Rate * testChurn.Duration.Seconds()
	if float64(n) < 0.9*want || float64(n) > 1.1*want {
		t.Fatalf("%d operations in %v at %v/s", n, testChurn.Duration, testChurn.Rate)
	}
	if d := counts[opAdmit] - counts[opDepart]; d < -1 || d > 1 || counts[opRead] < 2*counts[opAdmit]-2 {
		t.Fatalf("mix admit/depart/read = %v, want 1:1:2", counts)
	}
	// Every tenant's operations stay on one connection, so they execute
	// in generation order.
	for c, ops := range load.Ops {
		for _, o := range ops {
			if o.Tenants[0].ID%conns != c {
				t.Fatalf("tenant %d routed to connection %d", o.Tenants[0].ID, c)
			}
		}
	}
}

// fakeClock advances only when told to; SleepUntil overshoots by slop,
// like a coarse timer, and the i-th sleep by stalls[i] more, like a
// process stall that falls in idle time.
type fakeClock struct {
	now    time.Duration
	slop   time.Duration
	stalls []time.Duration
	sleeps int
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t + c.slop
		if c.sleeps < len(c.stalls) {
			c.now += c.stalls[c.sleeps]
		}
		c.sleeps++
	}
}

func TestOpenLoopLateness(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name    string
		slop    time.Duration
		stalls  []time.Duration
		due     []time.Duration
		service time.Duration
		latency []time.Duration
		late    []time.Duration
	}{
		{
			name: "idle connection, late timer", slop: ms, service: 2 * ms,
			due:     []time.Duration{0, 10 * ms, 20 * ms},
			latency: []time.Duration{2 * ms, 2 * ms, 2 * ms},
			late:    []time.Duration{0, ms, ms},
		},
		{
			name: "backlog charges the wait", service: 5 * ms,
			due:     []time.Duration{0, ms, 2 * ms},
			latency: []time.Duration{5 * ms, 9 * ms, 13 * ms},
			late:    []time.Duration{0, 0, 0},
		},
		{
			// The timer's slop on the first request is forgiven to it, but
			// the second waits for the first on the real timeline.
			name: "slop delays the next request", slop: 600 * time.Microsecond, service: ms,
			due:     []time.Duration{ms, 2200 * time.Microsecond},
			latency: []time.Duration{ms, 1400 * time.Microsecond},
			late:    []time.Duration{600 * time.Microsecond, 0},
		},
		{
			// A 20ms stall while the connection is idle: the request it
			// wakes late is charged all but timerSlop of it, and the
			// requests queued behind it are charged their wait.
			name: "idle stall is charged", service: 2 * ms,
			stalls:  []time.Duration{20 * ms},
			due:     []time.Duration{0, 10 * ms, 12 * ms, 14 * ms},
			latency: []time.Duration{2 * ms, 21 * ms, 22 * ms, 22 * ms},
			late:    []time.Duration{0, 20 * ms, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{slop: tc.slop, stalls: tc.stalls}
			ops := make([]op, len(tc.due))
			for i, d := range tc.due {
				ops[i] = op{Kind: opRead, Due: d}
			}
			samples := runOpen(clk, ops, func(op) outcome {
				clk.now += tc.service
				return outcome{RTT: tc.service, OK: true}
			})
			for i, s := range samples {
				if s.Latency != tc.latency[i] || s.Late != tc.late[i] {
					t.Errorf("request %d: latency %v late %v, want %v and %v",
						i, s.Latency, s.Late, tc.latency[i], tc.late[i])
				}
			}
		})
	}
}

// drive runs every connection's ops one connection after another, so the
// engine sees the same admission order on every call.
func drive(t *testing.T, s *sut, traced bool, load churnLoad) []*conn {
	t.Helper()
	var cs []*conn
	for i := range load.Ops {
		c := newConn(i, s.base, engineConfig.Gamma)
		c.traced = traced
		cs = append(cs, c)
	}
	for i, c := range cs {
		runClosed(newRealClock(), load.Prefill[i], c.exec)
		c.reqs = c.reqs[:0]
		runClosed(newRealClock(), load.Ops[i], c.exec)
		c.close()
		if c.fails > 0 {
			t.Fatalf("connection %d: %d failures: %v", i, c.fails, c.errs)
		}
	}
	return cs
}

func placementBytes(t *testing.T, s *sut) []byte {
	t.Helper()
	resp, err := http.Get(s.base + "/v1/placement")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWrapperTransparency drives one sequence through the plain and the
// traced controller: the placements must match byte for byte, so the
// traced run measures the same program.
func TestWrapperTransparency(t *testing.T) {
	load := genChurn(11, churnSpec{Population: 200, Rate: 500, Duration: 2 * time.Second})
	dir := t.TempDir()

	plain, err := startSUT(filepath.Join(dir, "plain.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.remove()
	drive(t, plain, false, load)
	want := placementBytes(t, plain)

	tr := newTracer()
	traced, err := startSUT(filepath.Join(dir, "traced.wal"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.remove()
	tr.arm()
	cs := drive(t, traced, true, load)
	tr.disarm()
	got := placementBytes(t, traced)

	if !bytes.Equal(got, want) {
		t.Fatalf("traced placement differs from the plain one (%d vs %d bytes)", len(got), len(want))
	}
	if err := traced.close(); err != nil {
		t.Fatal(err)
	}
	var lt layerTotals
	tr.addTo(&lt, cs)
	admits := 0
	for _, ops := range load.Ops {
		for _, o := range ops {
			if o.Kind.isAdmit() {
				admits++
			}
		}
	}
	if lt.unjoined != 0 || lt.joined != admits {
		t.Fatalf("joined %d admissions, %d unjoined, want all %d joined", lt.joined, lt.unjoined, admits)
	}
	if r := lt.reconcile(); r.Residual < 0 || r.ResidualFrac > 0.5 {
		t.Fatalf("reconciliation residual %.2fµs (%.1f%% of %.2fµs)", r.Residual, 100*r.ResidualFrac, r.RTT)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(append([]float64(nil), xs...), 0.5); q != 3 {
		t.Errorf("median by rank = %v, want 3", q)
	}
	if q := quantile(append([]float64(nil), xs...), 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
