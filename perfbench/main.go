// Command perfbench is the repository's layered benchmark. It runs one
// seeded workload against the real serving stack — annserve and, for
// routed-knn, annrouter over four Hilbert shards — in-process on loopback,
// checks every answer, and prints the workload's metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (see BENCHMARK.json);
// with -trace 1 a separate traced pass produces the per-layer set, read
// from the counters and access logs the layers already expose, and writes
// a Chrome trace-event file of the spans it recorded.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload join --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"allnn/internal/obs"
)

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"join":       runJoin,
	"routed-knn": runRoutedKNN,
	"write-mix":  runWriteMix,
}

// gatedMetrics are the end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order, with their units.
var gatedMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// layerMetrics are the per-layer metrics every workload reports with
// -trace 1, in BENCHMARK.json order. A workload records 0 for the counts
// and fractions of a layer it bypasses, so a time appears here only when
// every workload measures it; the times of layers one workload alone
// exercises are printed in the per-layer table instead (see README.md).
var layerMetrics = []struct{ name, unit string }{
	{"geom.kernel_pairs", "count"},
	{"geom.kernel_early_out_frac", "frac"},
	{"core.distance_calcs", "count"},
	{"core.nodes_expanded", "count"},
	{"core.enqueue_frac", "frac"},
	{"core.filter_frac", "frac"},
	{"core.worker_busy_frac", "frac"},
	{"core.steals", "count"},
	{"core.splits", "count"},
	{"nodecache.hit_frac", "frac"},
	{"nodecache.invalidations", "count"},
	{"storage.pool_hit_frac", "frac"},
	{"storage.page_reads_per_knn", "count"},
	{"storage.page_writes", "count"},
	{"storage.write_bytes_per_user_byte", "B/B"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_user_byte", "B/B"},
	{"wal.replay_records", "count"},
	{"ann.build_s", "s"},
	{"ann.knn_us", "us"},
	{"ann.snapshot_pins_max", "count"},
	{"server.admission_wait_ms", "ms"},
	{"server.request_ms", "ms"},
	{"server.flush_ms", "ms"},
	{"server.bytes_out_per_row", "B"},
	{"client.wire_overhead_ms", "ms"},
	{"router.shards_contacted_per_knn", "count"},
	{"router.shards_pruned_frac", "frac"},
	{"router.backend_rpcs_per_knn", "count"},
	{"router.self_frac", "frac"},
}

// run carries one invocation's settings and collects what the workload
// measured.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workDir  string // scratch space for page files, removed after the run
	outDir   string // where artifacts (result, trace) are written

	attempted, failed int64
	checks            []check
	endToEnd          []metric // the workload's own end-to-end table
	layers            []metric // the per-layer table (traced runs)
	gated             map[string]float64
	fingerprint       map[string]uint64
	facts             map[string]any // provenance: sizes, pools, loop shape
	connections       int
	spans             *obs.Tracer // traced runs only; nil otherwise
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// check is one oracle check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *run) e2e(name, unit string, v float64, note string) {
	r.endToEnd = append(r.endToEnd, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *run) layer(name, unit string, v float64, note string) {
	r.layers = append(r.layers, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *run) gate(name string, v float64) { r.gated[name] = v }

func (r *run) fact(name string, v any) { r.facts[name] = v }

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: join, routed-knn or write-mix")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 20, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload join|routed-knn|write-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	r, err := execute(*workload, fn, *seed, *seconds, *trace == 1, filepath.Join(".bench_build", "perfbench"), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// execute runs one workload and prints its report and the result line.
// An error means the run could not complete (nothing is printed for it);
// a completed run whose oracle checks failed still prints its result,
// with correct=false.
func execute(name string, fn func(*run) error, seed int64, seconds int, traced bool, outDir string, out io.Writer) (*run, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	r := &run{
		workload: name, seed: seed, seconds: seconds, traced: traced,
		workDir: workDir, outDir: outDir,
		gated: map[string]float64{}, fingerprint: map[string]uint64{}, facts: map[string]any{},
	}
	if traced {
		r.spans = obs.NewTracer()
	}
	steal0, total0 := cpuTicks()
	if err := fn(r); err != nil {
		return nil, err
	}
	steal1, total1 := cpuTicks()
	r.fact("host_steal_frac", frac(float64(steal1-steal0), float64(total1-total0)))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.e2e("rss_peak_mb", "MB", rss, "VmHWM of the benchmark process")
	r.gate("rss_peak_mb", rss)
	return r, r.report(out)
}

// report prints the human-readable tables, writes the artifacts and
// ends with the one-line JSON result.
func (r *run) report(out io.Writer) error {
	w := bufio.NewWriter(out)
	prov := r.provenance()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	provJSON, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", provJSON)
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-34s %-6s %s\n", c.Name, status, c.Detail)
	}
	printTable(w, "end-to-end", r.endToEnd)
	if r.traced {
		printTable(w, "per-layer", r.layers)
	}
	if len(r.fingerprint) > 0 {
		keys := make([]string, 0, len(r.fingerprint))
		for k := range r.fingerprint {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "fingerprint %s=%d\n", k, r.fingerprint[k])
		}
	}

	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	if r.traced {
		measured := map[string]float64{}
		for _, m := range r.layers {
			measured[m.Name] = m.Value
		}
		for _, m := range layerMetrics {
			v, ok := measured[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not recorded", m.name)
			}
			res.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		for _, m := range gatedMetrics {
			v, ok := r.gated[m.name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}

	artifact := struct {
		Provenance  map[string]any    `json:"provenance"`
		Checks      []check           `json:"checks"`
		EndToEnd    []metric          `json:"end_to_end"`
		PerLayer    []metric          `json:"per_layer,omitempty"`
		Fingerprint map[string]uint64 `json:"fingerprint,omitempty"`
		Result      any               `json:"result"`
	}{prov, r.checks, r.endToEnd, r.layers, r.fingerprint, res}
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, b2i(r.traced)))
	if err := writeJSONFile(base+".json", artifact); err != nil {
		return err
	}
	fmt.Fprintf(w, "result file %s.json\n", base)
	if r.traced {
		if err := writeTrace(base+".trace.json", r.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace file %s.trace.json (%d spans; load in https://ui.perfetto.dev)\n", base, r.spans.Len())
	} else {
		// The traced run reads this back to report tracing overhead.
		if err := writeJSONFile(filepath.Join(r.outDir, "untraced-"+r.workload+".json"), r.endToEnd); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "\n%s\n%-36s %16s  %-6s %s\n", title, "metric", "value", "unit", "note")
	for _, m := range ms {
		fmt.Fprintf(w, "%-36s %16s  %-6s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.Note)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance records where and how the numbers were taken. A result is
// marked degraded when the host has fewer CPUs than the workload has
// client connections, since the closed loop then measures time-slicing.
func (r *run) provenance() map[string]any {
	p := map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"seed":        r.seed,
		"seconds":     r.seconds,
		"workload":    r.workload,
		"traced":      r.traced,
		"connections": r.connections,
		"degraded":    runtime.NumCPU() < r.connections,
		"git_commit":  gitCommit(),
	}
	for k, v := range r.facts {
		p[k] = v
	}
	return p
}

// gitCommit is the VCS revision the toolchain stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuTicks reads the host-wide steal and total CPU ticks from
// /proc/stat; the steal share over a run says how much of the machine
// other tenants took (0, 0 when unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// percentile returns the nearest-rank q-quantile of sorted durations, in
// milliseconds.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6
}

// quantile returns the nearest-rank q-quantile of a non-empty float
// slice (sorted in place).
func quantile(vs []float64, q float64) float64 {
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

// median of a non-empty float slice (sorted in place).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
