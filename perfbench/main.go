// Command perfbench is the repository's end-to-end benchmark. It drives the
// training session and the strategy service through their public APIs
// under three workloads, checks every output, and prints the metrics that
// BENCHMARK.json names. README.md in this directory says why each workload
// exists and which end-to-end metric each per-layer metric should move.
//
//	perfbench --workload train --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --steady 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"time"
)

// nproc bounds the load: the service workloads' connections and
// load-generating goroutines.
var nproc = goruntime.NumCPU()

// setupRepeats is how many times a plain run sets up before its window;
// setup_s is the median.
const setupRepeats = 3

// metric names a reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of a plain run, as BENCHMARK.json lists them.
var endToEnd = []metric{
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"goodput_rps", "1/s"},
	{"speedup_vs_dp", "x"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists them.
var perLayer = []metric{
	{"core.search_ms_p50", "ms"},
	{"core.search_ms_p90", "ms"},
	{"core.colocate_ms", "ms"},
	{"core.osdpos_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"core.dpos_ms", "ms"},
	{"core.ranks_ms", "ms"},
	{"core.evaluated", "count"},
	{"core.pruned", "count"},
	{"core.prune_share", "ratio"},
	{"core.seeded_share", "ratio"},
	{"core.seed_won_share", "ratio"},
	{"sim.run_ms_p50", "ms"},
	{"sim.runs", "count"},
	{"sim.ops_per_s", "1/s"},
	{"session.self_ms", "ms"},
	{"session.rounds", "count"},
	{"session.activated_share", "ratio"},
	{"session.rollback_share", "ratio"},
	{"session.pretrain_sim_s", "s"},
	{"cost.predict_err_pct", "%"},
	{"cost.decode_ms", "ms"},
	{"graph.decode_ms", "ms"},
	{"strategy.fingerprint_ms", "ms"},
	{"strategy.encode_ms", "ms"},
	{"strategy.materialize_ms", "ms"},
	{"validate.strategy_ms", "ms"},
	{"serve.pre_search_ms_p50", "ms"},
	{"serve.pre_search_ms_p90", "ms"},
	{"serve.search_ms_p50", "ms"},
	{"serve.post_search_ms_p50", "ms"},
	{"serve.compute_hit_us", "us"},
	{"serve.http_us", "us"},
	{"serve.hit_share", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.evictions", "count"},
	{"serve.seeded", "count"},
	{"serve.seed_won", "count"},
	{"serve.queue_depth_max", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.sent", "count"},
	{"trace.overhead_pct", "%"},
}

// runner is one workload: its inputs, generated from the seed, and the
// system under test.
type runner interface {
	// prepare readies the system for one timed window; tr is nil for an
	// untraced window.
	prepare(tr *tracer) error
	// measure runs the window and checks every output.
	measure() (*outcome, error)
	// close stops what prepare started.
	close()
}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists.
var workloads = []struct {
	name  string
	start func(seed int64, seconds int) (runner, error)
}{
	{"train", newTrain},
	{"serve-miss", newServeMiss},
	{"serve-hit", newServeHit},
}

// outcome is what one timed window measured and checked.
type outcome struct {
	latency sample // ms per successful operation, in the order sent
	// group holds the group of each latency: operations of one kind on
	// train and serve-miss, or one block of time on serve-hit (blocks set).
	group      []int
	blocks     bool
	good       int     // successful operations within the workload's latency limit
	goodput    float64 // goodput_rps
	elapsed    time.Duration
	attempted  int
	failed     int
	speedup    float64 // geomean of simulated data-parallel ÷ answered-strategy iteration time
	speedupN   int
	peakHeapMB float64
	layers     map[string]float64 // traced windows only
	problems   []string
}

// fail counts one failed operation and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "train, serve-miss, serve-hit, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the workload untraced, then traced, and prints the per-layer metrics")
	steadyRuns := flag.Int("steady", 0, "run each workload this many times as child processes with seeds seed, seed+1, ..., and print each end-to-end metric's median and quartiles against its bound")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *steadyRuns); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, steadyRuns int) error {
	var names []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			names = append(names, w.name)
		}
	}
	switch {
	case len(names) == 0:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case steadyRuns > 0:
		return steady(names, steadyRuns, seed, seconds)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			continue
		}
		var res *result
		var err error
		if trace == 1 {
			res, err = tracedRun(w.name, w.start, seed, seconds)
		} else {
			res, err = plainRun(w.name, w.start, seed, seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// plainRun sets the workload up setupRepeats times, timing each, then
// measures one untraced window.
func plainRun(name string, start func(int64, int) (runner, error), seed int64, seconds int) (*result, error) {
	var setup sample
	var r runner
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			r.close()
			r = nil
		}
		goruntime.GC()
		t0 := time.Now()
		next, err := start(seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		r = next
		if err := r.prepare(nil); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	goruntime.GC()
	o, err := r.measure()
	if err != nil {
		return nil, err
	}
	p50, p90, groups := o.calmLatency()
	vals := map[string]float64{
		"latency_ms_p50": p50,
		"latency_ms_p90": p90,
		"goodput_rps":    o.goodput,
		"speedup_vs_dp":  o.speedup,
		"peak_heap_mb":   o.peakHeapMB,
		"setup_s":        setup.quantile(0.5),
	}
	counts := map[string]int{
		"latency_ms_p50": groups, "latency_ms_p90": groups, "goodput_rps": o.good,
		"speedup_vs_dp": o.speedupN, "peak_heap_mb": 1, "setup_s": len(setup),
	}
	report(name, o, endToEnd, vals, counts)
	q, v := o.latency.tail()
	fmt.Fprintf(os.Stderr, "%s: over the whole window: p50 = %.4g ms, p90 = %.4g ms, highest supported percentile p%g = %.4g ms (n=%d), goodput = %.4g/s\n",
		name, o.latency.quantile(0.5), o.latency.quantile(0.9), 100*q, v, len(o.latency), float64(o.good)/o.elapsed.Seconds())
	return newResult(o, endToEnd, vals), nil
}

// tracedRun measures one untraced and one traced window on the same inputs
// and reports the per-layer metrics, the tracing overhead as the change in
// median latency, and a Chrome trace of the traced window.
func tracedRun(name string, start func(int64, int) (runner, error), seed int64, seconds int) (*result, error) {
	r, err := start(seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	window := func(tr *tracer) (*outcome, error) {
		defer r.close()
		if err := r.prepare(tr); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		goruntime.GC()
		return r.measure()
	}
	plain, err := window(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := window(tr)
	if err != nil {
		return nil, err
	}
	p, t := plain.latency.quantile(0.5), traced.latency.quantile(0.5)
	traced.layers["trace.overhead_pct"] = 100 * ratio(t-p, p)
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: Chrome trace of the traced window written to %s\n", name, path)
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	report(name, traced, perLayer, traced.layers, nil)
	return newResult(traced, perLayer, traced.layers), nil
}

func newResult(o *outcome, metrics []metric, vals map[string]float64) *result {
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// report prints the run's metrics with their units and sample counts, and
// its failures, to standard error.
func report(name string, o *outcome, metrics []metric, vals map[string]float64, counts map[string]int) {
	fmt.Fprintf(os.Stderr, "%s: %d attempted, %d failed (fail_share %.4g), ncpu %d, %s\n",
		name, o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)), nproc, goruntime.Version())
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "%s:   %s\n", name, p)
	}
	for _, m := range metrics {
		n := ""
		if c, ok := counts[m.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(os.Stderr, "%s:   %-26s %14.6g %s%s\n", name, m.name, vals[m.name], m.unit, n)
	}
}

// steady runs each workload runs times as child processes of this binary,
// with seeds seed, seed+1, ..., reversing the workload order every other
// round so that drift in the host's load spreads over all of them. It then
// prints each end-to-end metric's quartiles and their spread as a share of
// the median, against the metric's bound in BENCHMARK.json.
func steady(names []string, runs int, seed int64, seconds int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for _, n := range names {
		values[n] = map[string][]float64{}
	}
	for r := 0; r < runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, n := range order {
			s := seed + int64(r)
			res, err := child(exe, n, s, seconds)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", n, s, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				values[n][m] = append(values[n][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", n, s)
		}
	}
	fmt.Printf("%-10s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, n := range names {
		for _, m := range endToEnd {
			vs := values[n][m.name]
			q1, q2, q3 := quartiles(vs)
			spread := ratio(q3-q1, q2)
			verdict := "ok"
			if spread >= bounds[m.name]/3 {
				verdict = "WIDE"
			}
			fmt.Printf("%-10s %-15s %12.6g %12.6g %12.6g %8.4f %6.2f %s\n", n, m.name, q1, q2, q3, spread, bounds[m.name], verdict)
		}
	}
	all, err := json.Marshal(values)
	if err != nil {
		return err
	}
	fmt.Println(string(all))
	return nil
}

// child runs one plain run of this binary and returns its result line.
func child(exe, name string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, errOut.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return &res, nil
}

// readBounds returns the end-to-end metrics' bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
