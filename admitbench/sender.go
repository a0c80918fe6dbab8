package main

import "time"

// clock is the sender's time source: offsets from the start of the timed
// phase. The real clock sleeps; tests substitute a fake one.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// realClock measures from a fixed start on the monotonic clock.
type realClock struct{ start time.Time }

func newRealClock() realClock { return realClock{start: time.Now()} }

func (c realClock) Now() time.Duration { return time.Since(c.start) }

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// outcome is what executing one request reports back to the sender.
type outcome struct {
	// RTT is the client round trip: request write to response body read.
	RTT time.Duration
	// OK is false when the response was not the expected one.
	OK bool
	// Acked counts the admissions the response acknowledged.
	Acked int
}

// sample is one timed request.
type sample struct {
	Kind opKind
	// Latency runs from when the request was due (open loop) or sent
	// (closed loop) to the end of its response, so a stall is charged to
	// every request it delays. The open loop forgives at most timerSlop
	// of a late send (see runOpen).
	Latency time.Duration
	RTT     time.Duration
	// Late is how long after it could have been sent the request was
	// sent: after its due time, or after the connection came free when the
	// previous request overran the due time. It measures the generator,
	// not the system under test.
	Late  time.Duration
	OK    bool
	Acked int
	// End is the completion offset of the request.
	End time.Duration
}

// timerSlop is the part of a late send that is not charged to the
// request: the wake-up granularity of Go's idle timers on Linux (1ms).
const timerSlop = time.Millisecond

// runOpen sends ops on one connection on their schedule: it sleeps until
// each op is due, or sends at once when the connection was busy past the
// due time.
//
// Latency counts from the due time on the real timeline, less at most
// timerSlop of the send's lateness. A request delayed by a slow
// predecessor or by a stall of the process, busy or idle, is charged the
// wait beyond the timer's own slop.
func runOpen(clk clock, ops []op, exec func(op) outcome) []sample {
	samples := make([]sample, 0, len(ops))
	var free time.Duration
	for _, o := range ops {
		if clk.Now() < o.Due {
			clk.SleepUntil(o.Due)
		}
		start := clk.Now()
		res := exec(o)
		end := clk.Now()
		late := start - max(o.Due, free)
		samples = append(samples, sample{
			Kind: o.Kind, Latency: end - o.Due - min(late, timerSlop), RTT: res.RTT,
			Late: late, OK: res.OK, Acked: res.Acked, End: end,
		})
		free = end
	}
	return samples
}

// runClosed sends ops on one connection back to back: each is due when the
// previous response arrived, so latency is the round trip and Late is the
// harness's own delay between a response and the next send.
func runClosed(clk clock, ops []op, exec func(op) outcome) []sample {
	samples := make([]sample, 0, len(ops))
	free := clk.Now()
	for _, o := range ops {
		start := clk.Now()
		res := exec(o)
		end := clk.Now()
		samples = append(samples, sample{
			Kind: o.Kind, Latency: end - start, RTT: res.RTT,
			Late: start - free, OK: res.OK, Acked: res.Acked, End: end,
		})
		free = end
	}
	return samples
}
