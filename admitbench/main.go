// Command admitbench is the repository's benchmark: it drives the durable
// CubeFit admission service over loopback HTTP on one named workload,
// checks every response and the recovered log, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as
// one JSON object on the last line of standard output.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash admitbench/run.sh --workload churn-small --seed 1 --seconds 10 --trace 0
//
// See admitbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "admitbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("admitbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: batch-onboard, churn-small or churn-large")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 10, "length of the timed phase")
		traced  = fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		workdir = fs.String("workdir", ".bench_build", "directory for the write-ahead logs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur := time.Duration(*seconds) * time.Second

	printEnv(*name, def, *seed, dir)
	plain := &bench{def: def, workdir: dir}
	if err := plain.run(*seed, dur); err != nil {
		return err
	}
	var res result
	passes := []*bench{plain}
	if *traced == 1 {
		tb := &bench{def: def, workdir: dir, traced: true}
		if err := tb.run(*seed, dur); err != nil {
			return err
		}
		passes = append(passes, tb)
		res.Metrics = tb.perLayer(plain)
		printReconciliation(tb.res.layers.reconcile())
	} else {
		res.Metrics = plain.endToEnd()
		fmt.Printf("wall-clock figures (no bound; they move with the host's CPU steal) over %d admit, %d depart and %d read requests:\n",
			len(plain.latencies(opKind.isAdmit)), len(plain.latencies(isDepart)), len(plain.latencies(isRead)))
		printMetrics(plain.wall())
	}
	for _, p := range passes {
		res.Attempted += p.res.attempted
		res.Failed += p.res.failed
		for _, e := range p.res.errs {
			fmt.Fprintln(os.Stderr, "admitbench: failure:", e)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("fail_frac %.6g (%d of %d operations and checks failed)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) run(seed uint64, dur time.Duration) error {
	if b.def.Batch != nil {
		return b.runBatch(seed, dur)
	}
	return b.runChurn(seed, dur)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// latencies returns the latencies in milliseconds of the successful
// samples of the given kinds.
func (b *bench) latencies(match func(opKind) bool) []float64 {
	var ms []float64
	for _, s := range b.res.samples {
		if s.OK && match(s.Kind) {
			ms = append(ms, float64(s.Latency)/1e6)
		}
	}
	return ms
}

// endToEnd returns the end-to-end metrics of an untraced run. Every time
// among them is process CPU time, which leaves out the waits for the host
// that move wall-clock figures (see README.md, "Why CPU time").
func (b *bench) endToEnd() map[string]metric {
	r := &b.res
	return map[string]metric{
		"setup_s":          {median(r.setupCPU), "s"},
		"cpu_us_per_op":    {ratio(r.cpuNs/1e3, r.tenantOps), "us"},
		"recover_cpu_s":    {median(r.recoverCPU), "s"},
		"log_bytes_per_op": {ratio(r.logBytes, r.acked), "B"},
		"servers_per_load": {median(r.perLoad), "count"},
		"heap_mb":          {median(r.heapMB), "MB"},
	}
}

func isDepart(k opKind) bool { return k == opDepart }
func isRead(k opKind) bool   { return k == opRead }

// wall returns the run's wall-clock figures: throughput, request latency
// per operation type, and set-up and recovery wall time. On a shared host
// they move with the host's CPU steal, so they are reported without a
// bound: as text after an untraced run, and as wall.* per-layer metrics of
// a traced run.
func (b *bench) wall() map[string]metric {
	r := &b.res
	m := map[string]metric{
		"wall.setup_s":   {median(r.setupS), "s"},
		"wall.ack_tput":  {median(r.tputs), "1/s"},
		"wall.recover_s": {median(r.recoverS), "s"},
	}
	for _, k := range []struct {
		name  string
		match func(opKind) bool
	}{
		{"admit", opKind.isAdmit},
		{"depart", isDepart},
		{"read", isRead},
	} {
		lat := b.latencies(k.match)
		m["wall."+k.name+"_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		m["wall."+k.name+"_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	}
	return m
}

// perLayer returns the traced run's per-layer metrics; plain is the
// untraced run of the same seed, for the tracing overhead.
func (b *bench) perLayer(plain *bench) map[string]metric {
	r := &b.res
	lt := &r.layers
	values := lt.metrics(lt.places + lt.removes)
	var late []float64
	for _, s := range r.samples {
		late = append(late, float64(s.Late)/1e6)
	}
	for k, v := range map[string]float64{
		"recovery.decode_s":         median(r.decodeS),
		"recovery.rebuild_s":        median(r.rebuildS),
		"recovery.verify_s":         median(r.verifyS),
		"telemetry.transitions":     r.transitions,
		"telemetry.critical":        r.critical,
		"runtime.alloc_kb_per_op":   ratio(r.allocBytes/1024, r.tenantOps),
		"runtime.gc_cycles_per_kop": ratio(r.gcCycles*1000, r.tenantOps),
		"runtime.gc_pause_ms":       r.gcPauseNs / 1e6,
		"gen.late_p99_ms":           quantile(late, 0.99),
		"gen.late_max_ms":           quantile(late, 1),
		"trace.overhead_frac":       ratio(meanRTT(r.samples), meanRTT(plain.res.samples)) - 1,
	} {
		values[k] = v
	}
	m := plain.wall()
	for k, v := range values {
		m[k] = metric{v, unitOf(k)}
	}
	return m
}

// meanRTT is the mean round trip of the successful admission requests.
func meanRTT(samples []sample) float64 {
	var sum, n float64
	for _, s := range samples {
		if s.OK && s.Kind.isAdmit() {
			sum += float64(s.RTT)
			n++
		}
	}
	return ratio(sum, n)
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us_per_op", "us"}, {"_kb_per_op", "KiB"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"},
		{"_frac", "fraction"}, {"_per_kop", "1/kop"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// printEnv prints the environment every figure depends on: a 2-core and a
// 16-core number are not comparable.
func printEnv(name string, def workloadDef, seed uint64, dir string) {
	env := map[string]any{
		"workload":     name,
		"seed":         seed,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"wal_segments": 1,
		"fs":           fsType(dir),
		"connections":  conns,
	}
	if c := def.Churn; c != nil {
		env["loop"] = "open"
		env["offered_ops_per_s"] = c.Rate
		env["population"] = c.Population
	} else {
		env["loop"] = "closed"
		env["batch_tenants"] = batchSize
		env["tenants_per_round"] = def.Batch.Tenants
	}
	line, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("env %s\n", line)
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Clean(dir), &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printReconciliation prints the admission round trip's layer table.
func printReconciliation(r reconciliation) {
	fmt.Printf("reconcile admit requests=%d unjoined=%.0f (mean µs per request)\n", r.N, r.Unjoined)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"transport", r.Transport}, {"wire", r.Wire}, {"queue", r.Queue},
		{"placer_wait", r.PlacerWait}, {"engine", r.Engine}, {"batch_tail", r.BatchTail},
		{"fsync", r.Fsync}, {"ack", r.Ack}, {"residual", r.Residual}, {"= rtt", r.RTT},
	} {
		fmt.Printf("  %-12s %10.2f\n", row.name, row.v)
	}
	fmt.Printf("  residual_frac %.4f\n", r.ResidualFrac)
}
