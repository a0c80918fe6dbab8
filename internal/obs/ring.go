package obs

import "sync"

// Ring is a bounded in-memory sink keeping the most recent records: the
// event window behind /debug/events and /explain, the span sample behind
// /debug/pipeline's stage percentiles, and that endpoint's recent-commit
// list. It is safe for concurrent use; Record takes one short
// mutex-guarded store, allocation-free once warm, cheap enough to sit on
// the admission path. A *Ring[Event] is a Recorder.
type Ring[T any] struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	buf []T
	//cubefit:guarded-by mu
	total uint64
}

// NewRing returns a ring holding up to capacity records (at least 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Record retains v, overwriting the oldest record when full.
//
//cubefit:hotpath
func (r *Ring[T]) Record(v T) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = v
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of records ever recorded, including evicted
// ones.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n of the most recent records, oldest first (all
// retained records when n is negative or exceeds the retention).
func (r *Ring[T]) Last(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLocked(n)
}

// Snapshot returns the all-time record total together with up to n of the
// most recent records, read under one lock acquisition so the pair is
// mutually consistent even while writers are recording.
func (r *Ring[T]) Snapshot(n int) (total uint64, recent []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.lastLocked(n)
}

func (r *Ring[T]) lastLocked(n int) []T {
	stored := len(r.buf)
	if n < 0 || n > stored {
		n = stored
	}
	out := make([]T, 0, n)
	// The oldest retained record sits at total%cap once the buffer wrapped.
	start := 0
	if stored == cap(r.buf) {
		start = int(r.total % uint64(cap(r.buf)))
	}
	for i := stored - n; i < stored; i++ {
		out = append(out, r.buf[(start+i)%stored])
	}
	return out
}
