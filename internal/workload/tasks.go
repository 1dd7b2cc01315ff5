// Package workload defines the DNN models the paper evaluates (AlexNet,
// VGG-16, ResNet-18 on ImageNet) and extracts tuning tasks from them the way
// TVM does: one task per unique (template, layer shape) pair. Table 1 of the
// paper reports 12 / 21 / 17 tasks respectively; TaskCounts in the tests pin
// those numbers.
package workload

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind is the code template a task is tuned against.
type Kind int

const (
	// Conv2D is the direct CUDA convolution template.
	Conv2D Kind = iota
	// WinogradConv2D is the Winograd F(2x2, 3x3)-style convolution template.
	WinogradConv2D
	// Dense is the fully connected (matrix-vector / matrix-matrix) template.
	Dense
)

// String names the template kind.
func (k Kind) String() string {
	switch k {
	case Conv2D:
		return "conv2d"
	case WinogradConv2D:
		return "winograd_conv2d"
	case Dense:
		return "dense"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ConvShape describes a convolution layer (NCHW, square kernels).
type ConvShape struct {
	Batch  int
	InC    int // input channels
	OutC   int // output channels
	H, W   int // input spatial dims
	Kernel int // kernel size (square)
	Stride int
	Pad    int
}

// OutH returns the output height.
func (c ConvShape) OutH() int { return (c.H+2*c.Pad-c.Kernel)/c.Stride + 1 }

// OutW returns the output width.
func (c ConvShape) OutW() int { return (c.W+2*c.Pad-c.Kernel)/c.Stride + 1 }

// FLOPs returns multiply-accumulate FLOPs (2 per MAC) for the convolution.
func (c ConvShape) FLOPs() int64 {
	return 2 * int64(c.Batch) * int64(c.OutH()) * int64(c.OutW()) *
		int64(c.OutC) * int64(c.InC) * int64(c.Kernel) * int64(c.Kernel)
}

// DenseShape describes a fully connected layer.
type DenseShape struct {
	Batch, In, Out int
}

// FLOPs returns 2·B·In·Out.
func (d DenseShape) FLOPs() int64 {
	return 2 * int64(d.Batch) * int64(d.In) * int64(d.Out)
}

// Task is one tuning problem: a template instantiated at a layer shape.
type Task struct {
	Model string
	// Index is the 1-based position within the model's task list
	// (the paper's "L7" notation indexes this list).
	Index int
	Kind  Kind
	Conv  ConvShape  // valid for Conv2D / WinogradConv2D
	Dense DenseShape // valid for Dense
	// Repeats is how many layers of the network share this task's shape;
	// end-to-end latency sums Repeats × the task's tuned kernel time.
	Repeats int
}

// Name returns a stable identifier like "resnet-18.L7.conv2d". The
// simulator hashes it into every measurement, so the name is built once
// per (model, index, kind) and then only looked up.
func (t Task) Name() string {
	k := nameKey{t.Model, t.Index, t.Kind}
	if m := taskNames.byKey.Load(); m != nil {
		if name, ok := (*m)[k]; ok {
			return name
		}
	}
	return k.store()
}

// nameKey is what a task's name is made of.
type nameKey struct {
	model string
	index int
	kind  Kind
}

// maxTaskNames caps the name memo; names of tasks past it are built on
// every call.
const maxTaskNames = 4096

// taskNames is the name memo. Readers load the map without a lock;
// store copies it under mu, and there is at most one store per task.
var taskNames struct {
	mu    sync.Mutex
	byKey atomic.Pointer[map[nameKey]string]
}

// store builds the name and adds it to the memo unless the memo is full.
func (k nameKey) store() string {
	name := k.model + ".L" + strconv.Itoa(k.index) + "." + k.kind.String()
	taskNames.mu.Lock()
	defer taskNames.mu.Unlock()
	old := taskNames.byKey.Load()
	if old == nil {
		old = &map[nameKey]string{}
	}
	if prev, ok := (*old)[k]; ok {
		return prev
	}
	if len(*old) >= maxTaskNames {
		return name
	}
	m := make(map[nameKey]string, len(*old)+1)
	for key, v := range *old {
		m[key] = v
	}
	m[k] = name
	taskNames.byKey.Store(&m)
	return name
}

// FLOPs returns the arithmetic work of the task.
func (t Task) FLOPs() int64 {
	if t.Kind == Dense {
		return t.Dense.FLOPs()
	}
	return t.Conv.FLOPs()
}

// SpecVector embeds the layer shape as the fixed-length numeric vector the
// prior generator H consumes: [kind, batch, inC, outC, H, W, kernel, stride,
// pad, in features, out features]. Conv and dense tasks share the encoding
// (dense uses In/Out in the last two slots).
func (t Task) SpecVector() []float64 {
	v := make([]float64, 11)
	v[0] = float64(t.Kind)
	if t.Kind == Dense {
		v[1] = float64(t.Dense.Batch)
		v[9] = float64(t.Dense.In)
		v[10] = float64(t.Dense.Out)
		return v
	}
	c := t.Conv
	v[1] = float64(c.Batch)
	v[2] = float64(c.InC)
	v[3] = float64(c.OutC)
	v[4] = float64(c.H)
	v[5] = float64(c.W)
	v[6] = float64(c.Kernel)
	v[7] = float64(c.Stride)
	v[8] = float64(c.Pad)
	return v
}

// SpecVectorLen is the length of Task.SpecVector.
const SpecVectorLen = 11
