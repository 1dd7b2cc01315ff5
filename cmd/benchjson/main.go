// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array of benchmark records on stdout, so benchmark results can be
// committed and diffed as machine-readable artifacts (see `make bench`).
//
// Usage:
//
//	go test -bench BenchmarkAnneal -run '^$' ./internal/anneal | benchjson > BENCH.json
//
// Lines that are not benchmark results (pass/fail summaries, goos/goarch
// headers) pass through to stderr untouched, so failures stay visible.
// Input from a failed run (a "--- FAIL" or "FAIL" line) writes no records
// and exits 1, so a benchmark's own gate fails the pipeline it feeds.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line. Metrics holds custom
// b.ReportMetric units (e.g. "meas/s" from the fleet benchmark) that the
// standard columns don't cover.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var records []Record
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rec, ok := parseLine(line)
		if !ok {
			failed = failed || isFailure(line)
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: the benchmark run failed; no records written")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// isFailure reports whether a line is `go test`'s verdict on a failure.
func isFailure(line string) bool {
	return strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL")
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkAnneal/workers=4-8   100   11532042 ns/op   2048 B/op   12 allocs/op
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val := fields[i]
		unit := fields[i+1]
		switch unit {
		case "ns/op":
			if rec.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Record{}, false
			}
			seen = true
		case "B/op":
			if rec.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Record{}, false
			}
		case "allocs/op":
			if rec.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Record{}, false
			}
		default:
			// Custom b.ReportMetric unit: keep it if the value parses.
			f, perr := strconv.ParseFloat(val, 64)
			if perr != nil {
				continue
			}
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[unit] = f
		}
	}
	return rec, seen
}
