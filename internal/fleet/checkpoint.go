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

// checkpointLine is one completed task on one (model, gpu) under one
// budget, as a JSON line.
type checkpointLine struct {
	Model  string        `json:"model"`
	GPU    string        `json:"gpu"`
	Budget *tuner.Budget `json:"budget,omitempty"`
	Task   TaskPlan      `json:"task"`
}

// Checkpoint is an append-only JSONL record of completed task plans, so a
// killed tuning campaign resumes per task instead of re-measuring work it
// already paid GPU-hours for. One checkpoint file serves a whole fleet run:
// entries are keyed by (model, gpu, task, budget), so a rerun under another
// budget tunes again rather than serve a plan that measured less or more;
// a line that records no budget (written before budgets were recorded)
// matches none. It is safe for concurrent use by
// the per-task and per-GPU goroutines of a fleet session, and survives a
// kill at any byte (see tlog.OpenAppend). Every append is fsync'd.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	done map[checkpointKey]TaskPlan
}

type checkpointKey struct {
	model, gpu, task string
	budget           tuner.Budget
}

// OpenCheckpoint opens (creating if absent) a checkpoint file and loads
// the tasks it already records. Failed task plans are never checkpointed,
// so everything loaded is reusable. A tail torn by a killed writer is
// repaired by tlog.OpenAppend, so the next append starts on a clean line.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{done: map[checkpointKey]TaskPlan{}}
	f, err := tlog.OpenAppend(path, func(line []byte) error {
		var cl checkpointLine
		if err := json.Unmarshal(line, &cl); err != nil {
			return err
		}
		if cl.Model == "" || cl.GPU == "" || cl.Task.TaskName == "" {
			return fmt.Errorf("fleet: checkpoint entry missing model/gpu/task")
		}
		if cl.Budget != nil {
			c.done[checkpointKey{cl.Model, cl.GPU, cl.Task.TaskName, *cl.Budget}] = cl.Task
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	c.f = f
	return c, nil
}

// Lookup returns the plan checkpointed for a task under budget b, if any.
func (c *Checkpoint) Lookup(model, gpu, taskName string, b tuner.Budget) (TaskPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tp, ok := c.done[checkpointKey{model, gpu, taskName, b}]
	return tp, ok
}

// Append durably records one task completed under budget b. Failed plans
// are skipped — a resumed session must re-measure them.
func (c *Checkpoint) Append(model, gpu string, b tuner.Budget, tp TaskPlan) error {
	if tp.Failed {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := telemetry.AppendJSONLine(c.f, checkpointLine{Model: model, GPU: gpu, Budget: &b, Task: tp}); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.done[checkpointKey{model, gpu, tp.TaskName, b}] = tp
	return nil
}

// Len reports how many (task, budget) plans are checkpointed.
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
