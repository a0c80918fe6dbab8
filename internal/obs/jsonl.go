package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONL is a sink writing one JSON object per record (JSON Lines): the
// event log (`cubefit-sim -events`), the span log (`-spans`) and the
// health log (`-health-log`). The first write error is sticky: subsequent
// records are dropped and the error is reported by Err, so a full disk
// does not corrupt the log mid-line or take the engine down. A
// *JSONL[Event] is a Recorder and a *JSONL[HealthRecord] a
// HealthRecorder; SpanRecorderFunc adapts a *JSONL[Span].
type JSONL[T any] struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	enc *json.Encoder
	//cubefit:guarded-by mu
	n uint64
	//cubefit:guarded-by mu
	err error
}

// NewJSONL returns a sink encoding records onto w, one per line.
func NewJSONL[T any](w io.Writer) *JSONL[T] {
	return &JSONL[T]{enc: json.NewEncoder(w)}
}

// Record writes v as one line unless an earlier write failed.
func (s *JSONL[T]) Record(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = fmt.Errorf("obs: jsonl write: %w", err)
		return
	}
	s.n++
}

// Count returns the number of records successfully written.
func (s *JSONL[T]) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *JSONL[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL decodes a JSON Lines log back into records. Records with a
// Normalize method (Span) are normalized on the way in, so span stage
// durations are well-defined regardless of which pipeline boundaries the
// writer stamped.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	dec := json.NewDecoder(r)
	var recs []T
	for {
		var v T
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return nil, fmt.Errorf("obs: jsonl read (record %d): %w", len(recs)+1, err)
		}
		if n, ok := any(&v).(interface{ Normalize() }); ok {
			n.Normalize()
		}
		recs = append(recs, v)
	}
}
