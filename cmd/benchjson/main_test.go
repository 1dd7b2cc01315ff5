package main

import "testing"

func TestParseLine(t *testing.T) {
	rec, ok := parseLine("BenchmarkAnneal/workers=4-8   100   11532042 ns/op   2048 B/op   12 allocs/op")
	if !ok {
		t.Fatal("expected parse to succeed")
	}
	if rec.Name != "BenchmarkAnneal/workers=4-8" || rec.Iterations != 100 ||
		rec.NsPerOp != 11532042 || rec.BytesPerOp != 2048 || rec.AllocsPerOp != 12 {
		t.Fatalf("bad record: %+v", rec)
	}
}

func TestParseLineMinimal(t *testing.T) {
	rec, ok := parseLine("BenchmarkGBTTrain-1   7   150000000 ns/op")
	if !ok {
		t.Fatal("expected parse to succeed")
	}
	if rec.Name != "BenchmarkGBTTrain-1" || rec.NsPerOp != 150000000 {
		t.Fatalf("bad record: %+v", rec)
	}
}

func TestParseLineCustomMetric(t *testing.T) {
	rec, ok := parseLine("BenchmarkFleetSharded   1   149507143 ns/op   30039 meas/s   17617272 B/op   91842 allocs/op")
	if !ok {
		t.Fatal("expected parse to succeed")
	}
	if rec.Metrics["meas/s"] != 30039 {
		t.Fatalf("custom metric lost: %+v", rec)
	}
	if rec.NsPerOp != 149507143 || rec.BytesPerOp != 17617272 {
		t.Fatalf("standard columns mangled: %+v", rec)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok   github.com/neuralcompile/glimpse/internal/anneal  3.2s",
		"Benchmark", // no fields after name
		"BenchmarkX notanumber 5 ns/op",
		"BenchmarkNoUnits 10 20 30", // numbers but no ns/op unit
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) unexpectedly succeeded", line)
		}
	}
}

func TestIsFailure(t *testing.T) {
	for line, want := range map[string]bool{
		"--- FAIL: BenchmarkCacheWarmVsCold": true,
		"FAIL":                               true,
		"FAIL\tgithub.com/neuralcompile/glimpse/internal/cache": true,
		"PASS": false,
		"ok  \tgithub.com/neuralcompile/glimpse/internal/cache": false,
		"    bench_test.go:200: FAIL is only a word in a log":   false,
		"--- BENCH: BenchmarkCacheWarmVsCold":                   false,
	} {
		if got := isFailure(line); got != want {
			t.Errorf("isFailure(%q) = %v, want %v", line, got, want)
		}
	}
}
