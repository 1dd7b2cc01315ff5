package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// jobRecord is one line of the append-only job journal
// (<state-dir>/jobs.jsonl). "submit" records carry the spec; "state"
// records carry every transition, with the result on terminal ones.
// Replaying the journal start to finish reconstructs the job table, so a
// restarted server resumes exactly where the drained one stopped.
type jobRecord struct {
	Kind   string        `json:"kind"` // "submit" | "state"
	ID     string        `json:"id"`
	Spec   *JobSpec      `json:"spec,omitempty"`
	State  JobState      `json:"state,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Cached bool          `json:"cached,omitempty"`
	Warm   bool          `json:"warm,omitempty"`
	Result *tuner.Result `json:"result,omitempty"`
}

// store owns the server's state directory: the job journal plus one
// measurement log per job (meas-<id>.jsonl, the tlog checkpoint that
// makes interrupted sessions resumable by replay).
type store struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	lastID int
}

// openStore opens (creating if needed) the state directory and replays
// the job journal, returning recovered jobs in submission order. Jobs
// recorded as running were interrupted mid-session; they come back as
// queued — their measurement logs replay the finished prefix for free.
func openStore(dir string) (*store, []*Job, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("server: state directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := &store{dir: dir}
	path := st.journalPath()

	byID := map[string]*Job{}
	var order []*Job
	f, err := tlog.OpenAppend(path, func(line []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch rec.Kind {
		case "submit":
			if rec.Spec == nil {
				return fmt.Errorf("submit record %s without spec", rec.ID)
			}
			j := &Job{ID: rec.ID, Spec: *rec.Spec, State: StateQueued}
			byID[rec.ID] = j
			order = append(order, j)
			var n int
			if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil {
				j.seq = n
				if n > st.lastID {
					st.lastID = n
				}
			}
		case "state":
			j, ok := byID[rec.ID]
			if !ok {
				return fmt.Errorf("state record for unknown job %s", rec.ID)
			}
			j.State = rec.State
			j.Detail = rec.Detail
			j.Cached = rec.Cached
			j.Warm = rec.Warm
			j.Result = rec.Result
		default:
			return fmt.Errorf("unknown journal record kind %q", rec.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: job journal %s: %w", path, err)
	}
	st.f = f
	for _, j := range order {
		if !j.State.terminal() {
			j.State = StateQueued // interrupted runs resume from their logs
		}
	}
	return st, order, nil
}

func (st *store) journalPath() string { return filepath.Join(st.dir, "jobs.jsonl") }

// measPath returns the job's measurement-log path — the checkpoint file
// a tlog.RecordingMeasurer appends to and a tlog.Replayer resumes from.
func (st *store) measPath(id string) string {
	return filepath.Join(st.dir, "meas-"+id+".jsonl")
}

// nextID allocates a fresh job ID.
func (st *store) nextID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lastID++
	return jobID(st.lastID)
}

func (st *store) append(rec jobRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := telemetry.AppendJSONLine(st.f, rec); err != nil {
		return err
	}
	// fsync each record: the journal is the zero-lost-jobs contract, and
	// job transitions are rare enough that durability is cheap.
	return st.f.Sync()
}

// appendSubmit journals a new job's spec.
func (st *store) appendSubmit(j *Job) error {
	spec := j.Spec
	return st.append(jobRecord{Kind: "submit", ID: j.ID, Spec: &spec})
}

// appendState journals a job's current state snapshot.
func (st *store) appendState(j *Job) error {
	return st.append(jobRecord{Kind: "state", ID: j.ID, State: j.State,
		Detail: j.Detail, Cached: j.Cached, Warm: j.Warm, Result: j.Result})
}

func (st *store) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}
