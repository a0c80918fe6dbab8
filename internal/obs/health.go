package obs

import "encoding/json"

// Health log records: the offline twin of the telemetry subsystem. The
// sampler writes one "config" record up front (the rule-engine
// configuration, verbatim), one "sample" record per tick (every scraped
// series value), and one "transition" record per health-state change.
// Because the rule engine consumes nothing but the sample stream, a
// recorded log replays into the exact verdict timeline the live run
// produced (`cubefit-inspect health`).

// Health record kinds.
const (
	HealthKindConfig     = "config"
	HealthKindSample     = "sample"
	HealthKindTransition = "transition"
)

// HealthRecord is one line of the health JSONL log.
type HealthRecord struct {
	Kind string `json:"kind"`
	// TNs is the record's timestamp on the sampler's monotonic nanosecond
	// scale (0 for the config record).
	TNs int64 `json:"tNs"`
	// Values holds the tick's scraped series (sample records): series key
	// → value, keys per metrics.SeriesKey plus the sampler's derived
	// `:count`/`:p50`/`:p99`/`:good` histogram series.
	Values map[string]float64 `json:"values,omitempty"`
	// From/To/Rules/Evidence describe a state change (transition records):
	// the previous and new health state, the rules firing at the worst
	// severity, and one human-readable evidence line per firing rule.
	From     string   `json:"from,omitempty"`
	To       string   `json:"to,omitempty"`
	Rules    []string `json:"rules,omitempty"`
	Evidence []string `json:"evidence,omitempty"`
	// Config is the telemetry configuration (config records), kept
	// verbatim so replay rebuilds an identical rule engine.
	Config json.RawMessage `json:"config,omitempty"`
}

// HealthRecorder receives health log records. A *JSONL[HealthRecord]
// is one.
type HealthRecorder interface {
	Record(HealthRecord)
}
