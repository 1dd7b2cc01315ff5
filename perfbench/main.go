// Command perfbench is the repository's end-to-end benchmark. It drives
// in-process glimpsed servers over HTTP and an in-process fleet.Scheduler
// through their public entry points, checks every output, and prints one
// JSON result line:
//
//	perfbench -workload serve_warm -seed 1 -seconds 10 -trace 0
//
// Workloads (see README.md for why each exists and what each per-layer
// metric should move):
//
//	serve_warm   cache-miss tuning jobs, budget 96, warm starts from donors
//	serve_cold   jobs for never-seen GPUs: TrainToolkit on the request path
//	fleet_churn  random tuner over resnet-18 × targets on 200 flapping endpoints
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with -trace 1 it carries the per-layer metrics of a traced
// run. Per-run state lives under -dir and is removed before exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options is one invocation's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // per-run scratch root
	log      io.Writer
	size     sizes
}

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string // hash of the run's results, for repeatability checks
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	run func(o *options, tr *tracing) (*runData, error)
	// untracedPass: a traced invocation runs the workload untraced first,
	// to measure tracing overhead against the same process and inputs.
	// serve_cold skips it: its cost is untraced training, and a second
	// pass would double a run that already takes three trainings.
	untracedPass bool
}

var workloads = map[string]benchWorkload{
	"serve_warm":  {runServeWarm, true},
	"serve_cold":  {runServeCold, false},
	"fleet_churn": {runFleetChurn, true},
}

func main() {
	o := options{log: os.Stderr}
	flag.StringVar(&o.workload, "workload", "", "serve_warm | serve_cold | fleet_churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_run", "scratch directory for per-run state (removed at exit)")
	flag.Parse()
	o.trace = *traceFlag != 0
	o.size = sizesFor(o.seconds)

	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory and builds the
// result line. An error means the run could not produce a result at all;
// failed output checks come back as Correct=false.
func run(o *options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	root, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	var rd *runData
	layers := map[string]metric{}
	if o.trace {
		var plain *runData
		if wl.untracedPass {
			if plain, err = wl.run(o, nil); err != nil {
				return nil, err
			}
		}
		tr := newTracing(dir)
		if rd, err = wl.run(o, tr); err != nil {
			return nil, err
		}
		if err := tr.rollup(rd, layers); err != nil {
			return nil, err
		}
		if plain != nil {
			rd.problems = append(plain.problems, rd.problems...)
			if plain.digest != rd.digest {
				rd.problems = append(rd.problems, "traced results differ from untraced results")
			}
			if p := plain.jobsPerSecond(); p > 0 {
				layers["trace.overhead_pct"] = metric{100 * (p - rd.jobsPerSecond()) / p, "%"}
			}
		}
		for name, m := range rd.layers {
			layers[name] = m
		}
	} else {
		if rd, err = wl.run(o, nil); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: rd.attempted, Failed: rd.failed, digest: rd.digest}
	if o.trace {
		res.Metrics = perLayer(layers)
	} else {
		res.Metrics, err = endToEnd(rd)
		if err != nil {
			rd.problems = append(rd.problems, err.Error())
		}
	}
	rd.print(o, res.Metrics)
	res.Correct = len(rd.problems) == 0 && rd.failed == 0
	return res, nil
}

// print writes the human-readable report to the log: every metric with
// its unit, the tails with their sample counts, notes, the results
// digest, and any failed check.
func (rd *runData) print(o *options, ms map[string]metric) {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d trace=%v: %d jobs attempted, %d failed, timed %.3fs\n",
		o.workload, o.seed, o.trace, rd.attempted, rd.failed, rd.timed.Seconds())
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
	if !o.trace {
		for _, s := range []struct {
			name string
			xs   []float64
		}{{"job", rd.latencyMS()}, {"ttfp", rd.ttfpMS()}} {
			if t, ok := tail(s.xs); ok {
				fmt.Fprintf(&b, "  %s_tail_ms = %.4f ms at p%d (%d samples, %d beyond it)\n",
					s.name, t.value, t.percentile, len(s.xs), tailBeyond)
			} else {
				fmt.Fprintf(&b, "  %s_tail_ms: not reported, %d samples leave none with %d beyond it\n",
					s.name, len(s.xs), tailBeyond)
			}
		}
	}
	for _, n := range rd.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	fmt.Fprintf(&b, "  results digest %s\n", rd.digest)
	for _, p := range rd.problems {
		fmt.Fprintf(&b, "  CHECK FAILED: %s\n", p)
	}
	_, _ = io.WriteString(o.log, b.String()) // diagnostics: the result line is what counts
}

// tagged prefixes a check failure with its job or unit.
func tagged(tag string, format string, args ...any) string {
	return tag + ": " + fmt.Sprintf(format, args...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// since is time.Since as float seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
