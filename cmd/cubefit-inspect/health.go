package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cubefit/internal/obs"
	"cubefit/internal/report"
	"cubefit/internal/telemetry"
)

// runHealth replays a health log (the JSONL written by
// `cubefit-server -health-log`) through a fresh rule engine and prints
// the reconstructed verdict timeline: the embedded configuration, every
// state transition with its firing rules and evidence, the final state,
// and the parity check against the transitions the live run recorded.
// A parity mismatch is an error (non-zero exit): it means the replayed
// engine no longer agrees with the one that produced the log.
func runHealth(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-inspect health", flag.ContinueOnError)
	var (
		logPath = fs.String("log", "", "health log (JSONL from cubefit-server -health-log, required)")
		jsonOut = fs.Bool("json", false, "emit the replay result as JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("health: -log is required")
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	//cubefit:vet-allow failclosed -- health log opened read-only; closing it cannot lose data
	defer f.Close()
	recs, err := obs.ReadJSONL[obs.HealthRecord](f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *logPath, err)
	}
	res, err := telemetry.Replay(recs)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else if err := renderHealthReplay(out, res); err != nil {
		return err
	}
	if !res.ParityOK() {
		return fmt.Errorf("health: replayed verdict timeline diverges from the %d transitions recorded live", len(res.Recorded))
	}
	return nil
}

func renderHealthReplay(out io.Writer, res telemetry.ReplayResult) error {
	cfg := res.Config
	fmt.Fprintf(out, "health log: %d ticks over %s, final state %s\n",
		res.Ticks, replaySpan(res), res.Final)
	fmt.Fprintf(out, "config: interval %s, recover after %d clean ticks\n", cfg.Interval, cfg.RecoverTicks)
	fmt.Fprintf(out, "  slo: P99 objective %s, budget %.2g, windows %s/%s, burn ≥%.1f× degraded / ≥%.1f× critical\n",
		cfg.Burn.Objective, cfg.Burn.Budget, cfg.Burn.FastWindow, cfg.Burn.SlowWindow,
		cfg.Burn.DegradedBurn, cfg.Burn.CriticalBurn)
	fmt.Fprintf(out, "  headroom: floor %.3g on %s; stall window %s\n",
		cfg.Headroom.Floor, orNone(cfg.Headroom.Series), cfg.Stall.Window)

	if len(res.Transitions) == 0 {
		fmt.Fprintf(out, "\nno state transitions: %s for the whole log\n", res.Final)
	} else {
		fmt.Fprintf(out, "\nverdict timeline (%d transitions, replayed):\n", len(res.Transitions))
		tb := report.NewTable("T", "Transition", "Rules", "Evidence")
		for _, tr := range res.Transitions {
			tb.AddRow(
				time.Duration(tr.TNs).String(),
				fmt.Sprintf("%s → %s", tr.From, tr.To),
				orNone(strings.Join(tr.Rules, ", ")),
				orNone(strings.Join(tr.Evidence, "; ")),
			)
		}
		if err := tb.Render(out); err != nil {
			return err
		}
	}

	if res.ParityOK() {
		fmt.Fprintf(out, "replay parity: OK — reconstruction matches the %d transitions recorded live\n",
			len(res.Recorded))
		return nil
	}
	fmt.Fprintf(out, "replay parity: MISMATCH — the live run recorded %d transitions:\n", len(res.Recorded))
	for _, tr := range res.Recorded {
		fmt.Fprintf(out, "  %s  %s → %s  [%s]\n",
			time.Duration(tr.TNs), tr.From, tr.To, strings.Join(tr.Rules, ", "))
	}
	return nil
}

// replaySpan is the wall-clock span the replayed transitions cover; the
// sample records carry monotonic timestamps starting near 0.
func replaySpan(res telemetry.ReplayResult) time.Duration {
	return time.Duration(res.Ticks) * res.Config.Interval
}

// orNone substitutes a dash for an empty cell (e.g. a recovery to
// healthy, which fires no rules).
func orNone(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
