package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// journalSummary renders a job table as a restart recovers it:
// interrupted jobs come back queued.
func journalSummary(jobs []*Job) string {
	var b bytes.Buffer
	for _, j := range jobs {
		state := j.State
		if !state.terminal() {
			state = StateQueued
		}
		fmt.Fprintf(&b, "%s:%s:%s:%v ", j.ID, state, j.Detail, j.Result != nil)
	}
	return b.String()
}

// TestJournalSurvivesTornWriteAtEveryOffset is the restart contract of
// the job journal: a kill can stop an append at any byte, and after it
// openStore → appendSubmit → close → openStore must succeed and recover
// every complete record plus the new submission. Appending onto an
// unrepaired fragment would make the second open fail, and glimpsed
// would refuse to start.
func TestJournalSurvivesTornWriteAtEveryOffset(t *testing.T) {
	spec := JobSpec{Model: workload.ResNet18, TaskIndex: 7, GPU: hwspec.TitanXp, Seed: 3}
	root := t.TempDir()
	st, _, err := openStore(root)
	if err != nil {
		t.Fatal(err)
	}
	j1 := &Job{ID: st.nextID(), Spec: spec, State: StateQueued}
	j2 := &Job{ID: st.nextID(), Spec: spec, State: StateQueued}
	j3 := &Job{ID: st.nextID(), Spec: spec, State: StateQueued}
	// Each step journals one record; wants[k] is the table a restart must
	// recover from the first k records.
	var submitted []*Job
	submit := func(j *Job) error {
		submitted = append(submitted, j)
		return st.appendSubmit(j)
	}
	steps := []func() error{
		func() error { return submit(j1) },
		func() error { j1.State = StateRunning; return st.appendState(j1) },
		func() error { return submit(j2) },
		func() error {
			j1.State, j1.Result = StateDone, &tuner.Result{BestGFLOPS: 812.5, Measurements: 48}
			return st.appendState(j1)
		},
		func() error { j2.State, j2.Detail = StateFailed, "measurer: boom"; return st.appendState(j2) },
		func() error { return submit(j3) },
	}
	wants := []string{""}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, journalSummary(submitted))
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(st.journalPath())
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(full); off++ {
		// Record k survives once every byte of its line but the newline is on disk.
		kept := 0
		for end := 0; kept < len(steps); kept++ {
			end += bytes.IndexByte(full[end:], '\n')
			if end > off {
				break
			}
			end++
		}
		dir := filepath.Join(root, fmt.Sprintf("cut-%d", off))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, recovered, err := openStore(dir)
		if err != nil {
			t.Fatalf("offset %d: first restart: %v", off, err)
		}
		if got := journalSummary(recovered); got != wants[kept] {
			t.Fatalf("offset %d: first restart recovered %q, want %q", off, got, wants[kept])
		}
		fresh := &Job{ID: st.nextID(), Spec: spec, State: StateQueued}
		if err := st.appendSubmit(fresh); err != nil {
			t.Fatal(err)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		st, recovered, err = openStore(dir)
		if err != nil {
			t.Fatalf("offset %d: second restart: %v", off, err)
		}
		want := wants[kept] + journalSummary([]*Job{fresh})
		if got := journalSummary(recovered); got != want {
			t.Fatalf("offset %d: second restart recovered %q, want %q", off, got, want)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
	}
}
