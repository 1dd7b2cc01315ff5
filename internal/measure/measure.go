// Package measure provides the measurement plumbing between tuners and
// (simulated) hardware: a common interface, a local in-process measurer, a
// net/rpc client/server pair mirroring the paper's "multiple generations of
// GPUs connected via RPC", and a fault-tolerant wrapper around them.
package measure

import (
	"context"
	"fmt"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Measurer runs configurations of one task on one device.
type Measurer interface {
	// MeasureBatch measures the configurations at the given flat indices.
	MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error)
	// DeviceName identifies the underlying GPU.
	DeviceName() string
}

// ContextMeasurer is a Measurer that honors context cancellation and
// deadlines mid-batch. Reliable uses it to cut off hung measurements; a
// plain Measurer is instead abandoned in a goroutine on timeout.
type ContextMeasurer interface {
	Measurer
	MeasureBatchContext(ctx context.Context, task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error)
}

// TraceBinder is implemented by measurers that can attach a
// telemetry.SpanContext to the measurements that follow: Remote stamps
// it onto the RPC wire so measured records child spans under the
// caller's trace, and wrappers (Reliable, tlog recorders) forward it
// down their chain. Binding carries identity only — it never changes
// what is measured, so traced and untraced runs stay byte-identical.
//
// A bind applies to subsequent batches until rebound. Callers rebind
// from the goroutine that issues the measurements (or before handing the
// measurer over), exactly like the Measurer calls themselves.
type TraceBinder interface {
	BindTrace(sc telemetry.SpanContext)
}

// BindTrace binds sc to m when the measurer (or its chain) supports
// trace propagation, reporting whether anything was bound. Local
// in-process measurers do not: their spans are already the caller's.
func BindTrace(m Measurer, sc telemetry.SpanContext) bool {
	b, ok := m.(TraceBinder)
	if ok {
		b.BindTrace(sc)
	}
	return ok
}

// Local measures on an in-process simulated device.
type Local struct {
	dev *gpusim.Device
}

// NewLocal builds a local measurer for the named GPU.
func NewLocal(gpuName string) (*Local, error) {
	spec, err := hwspec.ByName(gpuName)
	if err != nil {
		return nil, err
	}
	return &Local{dev: gpusim.NewDevice(spec)}, nil
}

// MustNewLocal is NewLocal for known-good GPU names.
func MustNewLocal(gpuName string) *Local {
	l, err := NewLocal(gpuName)
	if err != nil {
		panic(err)
	}
	return l
}

// Device exposes the underlying simulated device (for experiments that
// need oracle access, e.g. exhaustive baselines).
func (l *Local) Device() *gpusim.Device { return l.dev }

// MeasureBatch measures each index on the simulated device.
func (l *Local) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	out := make([]gpusim.Result, len(idxs))
	for i, idx := range idxs {
		if idx < 0 || idx >= sp.Size() {
			return nil, fmt.Errorf("measure: index %d out of space [0, %d)", idx, sp.Size())
		}
		out[i] = l.dev.MeasureIndex(task, sp, idx)
	}
	return out, nil
}

// MeasureBatchContext measures each index, checking for cancellation
// between configurations.
func (l *Local) MeasureBatchContext(ctx context.Context, task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	out := make([]gpusim.Result, len(idxs))
	for i, idx := range idxs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("measure: local batch on %s: %w", l.dev.Spec.Name, err)
		}
		if idx < 0 || idx >= sp.Size() {
			return nil, fmt.Errorf("measure: index %d out of space [0, %d)", idx, sp.Size())
		}
		out[i] = l.dev.MeasureIndex(task, sp, idx)
	}
	return out, nil
}

// DeviceName identifies the GPU.
func (l *Local) DeviceName() string { return l.dev.Spec.Name }
