package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/report"
)

// runHeadroom replays a decision event log through the incremental
// robustness headroom auditor and reports the safety-margin time series:
// one sample per closed admission or departure, the trough (the tightest
// the placement ever got), and the final per-server audit with each worst
// failure set attributed to its contributing tenants.
func runHeadroom(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-inspect headroom", flag.ContinueOnError)
	var (
		eventsPath = fs.String("events", "", "decision event log (JSONL, required)")
		gamma      = fs.Int("gamma", 0, "replication factor of the log (0 infers it from replica indices)")
		redline    = fs.Float64("redline", headroom.DefaultRedLine, "slack threshold for the below-red-line count")
		top        = fs.Int("top", 5, "show the N servers with the least final slack")
		csv        = fs.Bool("csv", false, "emit the full time series as CSV instead of the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eventsPath == "" {
		return fmt.Errorf("headroom: -events is required")
	}
	f, err := os.Open(*eventsPath)
	if err != nil {
		return err
	}
	//cubefit:vet-allow failclosed -- event log opened read-only; closing it cannot lose data
	defer f.Close()
	events, err := obs.ReadJSONL[obs.Event](f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *eventsPath, err)
	}

	var series []headroom.Point
	p, a, err := headroom.Replay(events, *gamma, *redline, func(pt headroom.Point) {
		series = append(series, pt)
	})
	if err != nil {
		return err
	}

	if *csv {
		fmt.Fprintln(out, "seq,kind,tenant,tenants,servers,min_slack,min_server,below_redline,overloaded")
		for _, pt := range series {
			fmt.Fprintf(out, "%d,%s,%d,%d,%d,%.6f,%d,%d,%d\n",
				pt.Seq, pt.Kind, pt.Tenant, pt.Tenants, pt.Servers,
				pt.MinSlack, pt.MinServer, pt.BelowRedLine, pt.Overloaded)
		}
		return nil
	}

	rep := a.Report()
	fmt.Fprintf(out, "%d events replayed (γ=%d), %d samples\n", len(events), rep.Gamma, len(series))
	fmt.Fprintf(out, "final: %d tenants on %d servers, min slack %.4f (server %d), p50 %.4f\n",
		p.NumTenants(), p.NumServers(), rep.MinSlack, rep.MinServer, rep.P50Slack)
	fmt.Fprintf(out, "red line %.3f: %d servers below, %d overloaded under worst-case failover\n",
		rep.RedLine, rep.BelowRedLine, rep.Overloaded)

	if len(series) > 0 {
		trough := series[0]
		for _, pt := range series[1:] {
			if pt.MinSlack < trough.MinSlack {
				trough = pt
			}
		}
		fmt.Fprintf(out, "trough: min slack %.4f on server %d (%s of tenant %d, %d tenants placed)\n",
			trough.MinSlack, trough.MinServer, trough.Kind, trough.Tenant, trough.Tenants)
	}

	worst := a.Worst(*top)
	if len(worst) == 0 {
		return nil
	}
	fmt.Fprintf(out, "\ntightest %d servers:\n", len(worst))
	tb := report.NewTable("Server", "Level", "Reserve", "Slack", "Worst failure set", "Contributing tenants")
	for _, e := range worst {
		contribs, err := headroom.Contributors(p, e.Server, e.WorstSet)
		if err != nil {
			return err
		}
		tenants := make([]int, 0, 8)
		for _, c := range contribs {
			for _, ts := range c.Tenants {
				tenants = append(tenants, ts.Tenant)
			}
		}
		tb.AddRow(
			fmt.Sprintf("%d", e.Server),
			fmt.Sprintf("%.3f", e.Level),
			fmt.Sprintf("%.3f", e.Reserve),
			fmt.Sprintf("%.3f", e.Slack),
			fmt.Sprintf("%v", e.WorstSet),
			fmt.Sprintf("%v", tenants),
		)
	}
	return tb.Render(out)
}
