// Package tlog provides persistent tuning logs in the spirit of AutoTVM's
// .log files: every hardware measurement is one JSON line, logs can be
// replayed into transfer-learning corpora, and the best configuration per
// task can be looked up for deployment. A RecordingMeasurer wraps any
// measure.Measurer so every tuner's measurements are captured
// transparently.
package tlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Entry is one logged measurement.
type Entry struct {
	Seq         int     `json:"seq"`
	Device      string  `json:"device"`
	Model       string  `json:"model"`
	TaskIndex   int     `json:"task_index"`
	TaskName    string  `json:"task_name"`
	ConfigIndex int64   `json:"config_index"`
	Valid       bool    `json:"valid"`
	GFLOPS      float64 `json:"gflops,omitempty"`
	TimeMS      float64 `json:"time_ms,omitempty"`
	CostSec     float64 `json:"cost_sec"`
	FailReason  string  `json:"fail_reason,omitempty"`
}

// Writer appends entries as JSON lines; it is safe for concurrent use.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	seq int
}

// NewWriter wraps an io.Writer. lastSeq is the sequence number of the
// last entry already in the log — 0 for a fresh log — so a writer
// resumed onto an existing file (checkpoint resume, -log append)
// continues numbering instead of restarting at 1. Callers resuming a log
// typically pass entries[len(entries)-1].Seq from Read.
func NewWriter(w io.Writer, lastSeq int) *Writer { return &Writer{w: w, seq: lastSeq} }

// Seq returns the sequence number of the most recently appended entry
// (or the lastSeq the writer was created with, before any Append).
func (w *Writer) Seq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Append writes one entry, assigning its sequence number.
func (w *Writer) Append(e Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	e.Seq = w.seq
	return telemetry.AppendJSONLine(w.w, e)
}

// ReadJSONLines streams newline-delimited JSON from r, calling fn with
// each non-empty line. A final line that is missing its terminating
// newline AND does not parse as JSON is silently dropped: that is exactly
// what a writer killed mid-append leaves behind, and resumable logs must
// survive it. Any other malformed line is an error.
func ReadJSONLines(r io.Reader, fn func(line []byte) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	lineNo := 0
	for {
		chunk, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return err
		}
		terminated := err == nil
		lineNo++
		line := bytes.TrimRight(chunk, "\r\n")
		if len(line) > 0 {
			if !terminated && !json.Valid(line) {
				return nil // truncated trailing write from a killed session
			}
			if ferr := fn(line); ferr != nil {
				return fmt.Errorf("tlog: line %d: %w", lineNo, ferr)
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// OpenAppend is the one open path of every durable JSONL log: it opens
// path for appending (creating it if absent), passes each complete line
// to fn (see ReadJSONLines), and repairs a tail torn by a kill so the
// next append starts on a clean line. An unterminated final line that
// parses as JSON lost only its newline and is terminated in place; one
// that does not parse is truncated away. The caller owns the returned
// file, including any Sync after its appends.
func OpenAppend(path string, fn func(line []byte) error) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := replayAndRepair(f, fn); err != nil {
		_ = f.Close() // already on the error path; the replay error wins
		return nil, err
	}
	return f, nil
}

func replayAndRepair(f *os.File, fn func(line []byte) error) error {
	data, err := io.ReadAll(f)
	if err != nil || len(data) == 0 {
		return err
	}
	if err := ReadJSONLines(bytes.NewReader(data), fn); err != nil {
		return err
	}
	if data[len(data)-1] == '\n' {
		return nil
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	if json.Valid(data[cut:]) {
		_, err = f.Write([]byte{'\n'})
		return err
	}
	return f.Truncate(int64(cut))
}

// Read parses a JSONL log (tolerating a truncated final line, see
// ReadJSONLines).
func Read(r io.Reader) ([]Entry, error) {
	var out []Entry
	err := ReadJSONLines(r, func(line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RecordingMeasurer wraps a Measurer and logs every measurement.
type RecordingMeasurer struct {
	Inner measure.Measurer
	Out   *Writer
}

// MeasureBatch measures through the inner measurer and logs the results.
func (r *RecordingMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	results, err := r.Inner.MeasureBatch(task, sp, idxs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		e := Entry{
			Device:      r.Inner.DeviceName(),
			Model:       task.Model,
			TaskIndex:   task.Index,
			TaskName:    task.Name(),
			ConfigIndex: idxs[i],
			Valid:       res.Valid,
			GFLOPS:      res.GFLOPS,
			TimeMS:      res.TimeMS,
			CostSec:     res.CostSec,
			FailReason:  res.FailReason,
		}
		if err := r.Out.Append(e); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// DeviceName identifies the wrapped device.
func (r *RecordingMeasurer) DeviceName() string { return r.Inner.DeviceName() }

// BindTrace forwards the span context down the chain
// (measure.TraceBinder); recording is identity-agnostic.
func (r *RecordingMeasurer) BindTrace(sc telemetry.SpanContext) { measure.BindTrace(r.Inner, sc) }

// Best returns the best valid entry for a task name across every device
// in the log, or ok=false. A mixed-device log can therefore return another
// GPU's configuration: deployment lookups must use BestForDevice, which
// filters to the device the config will actually run on.
func Best(entries []Entry, taskName string) (Entry, bool) {
	return bestWhere(entries, func(e Entry) bool { return e.TaskName == taskName })
}

// BestForDevice returns the best valid entry for a task name measured on
// the given device, or ok=false. This is the deployment-safe variant: a
// log shared by a fleet session holds entries from many GPUs, and a
// configuration tuned for one SKU must never be served as another's best.
func BestForDevice(entries []Entry, taskName, device string) (Entry, bool) {
	return bestWhere(entries, func(e Entry) bool {
		return e.TaskName == taskName && e.Device == device
	})
}

func bestWhere(entries []Entry, match func(Entry) bool) (Entry, bool) {
	best := Entry{}
	found := false
	for _, e := range entries {
		if !e.Valid || !match(e) {
			continue
		}
		if !found || e.GFLOPS > best.GFLOPS {
			best = e
			found = true
		}
	}
	return best, found
}

// GPUSeconds totals the measurement cost in a log.
func GPUSeconds(entries []Entry) float64 {
	total := 0.0
	for _, e := range entries {
		total += e.CostSec
	}
	return total
}

// ToTransferData replays log entries of the given template kind into a
// transfer-learning corpus: each entry's configuration is re-featurized
// through its task's space. Entries from unknown models are skipped.
func ToTransferData(entries []Entry, kind workload.Kind) (*tuner.TransferData, error) {
	// Tasks and spaces are cached by (Model, TaskIndex) — the pair that
	// actually resolves them. Keying by TaskName would let two models with
	// a same-named task featurize one model's config indices through the
	// other's space.
	type taskKey struct {
		model string
		index int
	}
	spaces := map[taskKey]*space.Space{}
	tasks := map[taskKey]workload.Task{}
	td := &tuner.TransferData{}
	for _, e := range entries {
		key := taskKey{model: e.Model, index: e.TaskIndex}
		task, ok := tasks[key]
		if !ok {
			var err error
			task, err = workload.TaskByIndex(e.Model, e.TaskIndex)
			if err != nil {
				continue // foreign model; skip
			}
			tasks[key] = task
			sp, err := space.ForTask(task)
			if err != nil {
				return nil, err
			}
			spaces[key] = sp
		}
		if task.Kind != kind {
			continue
		}
		sp := spaces[key]
		if e.ConfigIndex < 0 || e.ConfigIndex >= sp.Size() {
			return nil, fmt.Errorf("tlog: entry %d config index %d out of %s space", e.Seq, e.ConfigIndex, e.TaskName)
		}
		v := 0.0
		if e.Valid {
			v = e.GFLOPS
		}
		td.Features = append(td.Features, sp.FeaturesAt(e.ConfigIndex))
		td.GFLOPS = append(td.GFLOPS, v)
	}
	if len(td.Features) == 0 {
		return nil, fmt.Errorf("tlog: no entries of kind %v", kind)
	}
	return td, nil
}
