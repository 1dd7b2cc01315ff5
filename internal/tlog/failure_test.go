package tlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// errWriter fails every write after the first n bytes-calls succeed.
type errWriter struct {
	okCalls int
	calls   int
}

func (w *errWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.okCalls {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestAppendSurfacesWriterError(t *testing.T) {
	w := NewWriter(&errWriter{}, 0)
	if err := w.Append(Entry{TaskName: "t"}); err == nil {
		t.Fatal("Append on a failing writer returned nil error")
	}
}

// TestConcurrentAppend hammers one Writer from many goroutines: every
// entry must land intact on its own line with a unique sequence number.
func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&syncWriter{w: &buf}, 0)
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := w.Append(Entry{TaskName: fmt.Sprintf("g%d-%d", g, i)}); err != nil {
					t.Errorf("Append: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	entries, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read after concurrent appends: %v", err)
	}
	if len(entries) != goroutines*perG {
		t.Fatalf("read %d entries, want %d", len(entries), goroutines*perG)
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Seq < 1 || e.Seq > len(entries) {
			t.Fatalf("sequence %d outside 1..%d", e.Seq, len(entries))
		}
	}
}

// syncWriter serializes writes to the underlying buffer; the Writer's own
// mutex must still be what keeps whole lines from interleaving.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestReadRejectsMalformedMiddleLine(t *testing.T) {
	in := "{\"seq\":1}\nnot json\n{\"seq\":3}\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("malformed interior line was accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not identify line 2", err)
	}
}

func TestReadJSONLinesDropsKilledTail(t *testing.T) {
	in := "{\"seq\":1}\n{\"seq\":2,\"devi" // killed mid-append, no newline
	var lines int
	if err := ReadJSONLines(strings.NewReader(in), func([]byte) error { lines++; return nil }); err != nil {
		t.Fatalf("truncated tail should be tolerated, got %v", err)
	}
	if lines != 1 {
		t.Fatalf("saw %d lines, want 1 (the intact one)", lines)
	}
}

func TestReadJSONLinesPropagatesCallbackError(t *testing.T) {
	sentinel := errors.New("stop")
	err := ReadJSONLines(strings.NewReader("{\"seq\":1}\n"), func([]byte) error { return sentinel })
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// TestOpenAppendSurvivesKillAtEveryOffset truncates a log at every byte
// offset — everywhere a kill can stop a write — and checks that
// OpenAppend replays exactly the records whose bytes all reached disk
// (the newline may be missing), leaves the file clean, and that a record
// appended after the repair is read back by the next open.
func TestOpenAppendSurvivesKillAtEveryOffset(t *testing.T) {
	records := []string{`{"seq":1}`, `{"seq":2,"device":"titan-xp"}`, `{"seq":3,"model":"alexnet"}`}
	full := strings.Join(records, "\n") + "\n"
	const next = `{"seq":4}`
	dir := t.TempDir()
	for off := 0; off <= len(full); off++ {
		path := filepath.Join(dir, fmt.Sprintf("log-%d.jsonl", off))
		if err := os.WriteFile(path, []byte(full[:off]), 0o644); err != nil {
			t.Fatal(err)
		}
		var want []string
		for i, end := 0, 0; i < len(records) && end+len(records[i]) <= off; i++ {
			want = append(want, records[i])
			end += len(records[i]) + 1
		}

		got, f := openAppendLines(t, path)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("offset %d: replayed %q, want %q", off, got, want)
		}
		if _, err := f.WriteString(next + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		want = append(want, next)
		got, f = openAppendLines(t, path)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("offset %d: after repair and append, replayed %q, want %q", off, got, want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != strings.Join(want, "\n")+"\n" {
			t.Fatalf("offset %d: repaired file is %q", off, data)
		}
	}
}

func openAppendLines(t *testing.T, path string) ([]string, *os.File) {
	t.Helper()
	var lines []string
	f, err := OpenAppend(path, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	return lines, f
}

// failingMeasurer returns an error from MeasureBatch.
type failingMeasurer struct{}

func (failingMeasurer) MeasureBatch(workload.Task, *space.Space, []int64) ([]gpusim.Result, error) {
	return nil, errors.New("board on fire")
}
func (failingMeasurer) DeviceName() string { return "dead-gpu" }

// okMeasurer returns one valid result per index.
type okMeasurer struct{}

func (okMeasurer) MeasureBatch(_ workload.Task, _ *space.Space, idxs []int64) ([]gpusim.Result, error) {
	out := make([]gpusim.Result, len(idxs))
	for i := range out {
		out[i] = gpusim.Result{Valid: true, GFLOPS: 1}
	}
	return out, nil
}
func (okMeasurer) DeviceName() string { return "ok-gpu" }

func TestRecordingMeasurerPropagatesInnerError(t *testing.T) {
	rm := &RecordingMeasurer{Inner: failingMeasurer{}, Out: NewWriter(&bytes.Buffer{}, 0)}
	if _, err := rm.MeasureBatch(workload.Task{}, nil, []int64{0}); err == nil {
		t.Fatal("inner measurer error was swallowed")
	}
}

func TestRecordingMeasurerPropagatesLogError(t *testing.T) {
	rm := &RecordingMeasurer{Inner: okMeasurer{}, Out: NewWriter(&errWriter{}, 0)}
	if _, err := rm.MeasureBatch(workload.Task{}, nil, []int64{0}); err == nil {
		t.Fatal("log write failure was swallowed; a lost measurement must surface")
	}
}
