package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// checkpointLine is one completed task run, as a JSON line.
type checkpointLine struct {
	Model  string        `json:"model"`
	GPU    string        `json:"gpu"`
	Tuner  string        `json:"tuner,omitempty"`
	Seed   *int64        `json:"seed,omitempty"`
	Budget *tuner.Budget `json:"budget,omitempty"`
	Task   TaskPlan      `json:"task"`
}

// Checkpoint is an append-only JSONL record of completed task plans, so a
// killed tuning campaign resumes per task instead of re-measuring work it
// already paid GPU-hours for. One checkpoint file serves a whole fleet run:
// entries are keyed by CheckpointKey, so a rerun with another tuner, seed
// or budget tunes again rather than serve a plan it did not tune; a line
// that lacks any of the tuner, seed or budget (written before they were
// recorded) matches none. It is safe for concurrent use by
// the per-task and per-GPU goroutines of a fleet session, and survives a
// kill at any byte (see tlog.OpenAppend). Every append is fsync'd.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	done map[CheckpointKey]TaskPlan
}

// CheckpointKey identifies one task run: the model and GPU, the tuner's
// Name, the task's name, the seed of the task's random stream, and the
// budget.
type CheckpointKey struct {
	Model, GPU, Tuner, Task string
	Seed                    int64
	Budget                  tuner.Budget
}

// OpenCheckpoint opens (creating if absent) a checkpoint file and loads
// the tasks it already records. Failed task plans are never checkpointed,
// so everything loaded is reusable. A tail torn by a killed writer is
// repaired by tlog.OpenAppend, so the next append starts on a clean line.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{done: map[CheckpointKey]TaskPlan{}}
	f, err := tlog.OpenAppend(path, func(line []byte) error {
		var cl checkpointLine
		if err := json.Unmarshal(line, &cl); err != nil {
			return err
		}
		if cl.Model == "" || cl.GPU == "" || cl.Task.TaskName == "" {
			return fmt.Errorf("fleet: checkpoint entry missing model/gpu/task")
		}
		if cl.Tuner != "" && cl.Seed != nil && cl.Budget != nil {
			c.done[CheckpointKey{cl.Model, cl.GPU, cl.Tuner, cl.Task.TaskName, *cl.Seed, *cl.Budget}] = cl.Task
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	c.f = f
	return c, nil
}

// Lookup returns the plan checkpointed for the task run k, if any.
func (c *Checkpoint) Lookup(k CheckpointKey) (TaskPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tp, ok := c.done[k]
	return tp, ok
}

// Append durably records the plan of the completed task run k, whose
// Task must be tp's TaskName. Failed plans are skipped — a resumed
// session must re-measure them.
func (c *Checkpoint) Append(k CheckpointKey, tp TaskPlan) error {
	if tp.Failed {
		return nil
	}
	if k.Task != tp.TaskName {
		return fmt.Errorf("fleet: checkpoint key for task %q holds plan of %q", k.Task, tp.TaskName)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	line := checkpointLine{Model: k.Model, GPU: k.GPU, Tuner: k.Tuner, Seed: &k.Seed, Budget: &k.Budget, Task: tp}
	if err := telemetry.AppendJSONLine(c.f, line); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.done[k] = tp
	return nil
}

// Len reports how many task runs are checkpointed.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Close releases the underlying file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
