package workload

import (
	"fmt"
	"sync"
	"testing"
)

// TestTable1TaskCounts pins the task inventory to the paper's Table 1.
func TestTable1TaskCounts(t *testing.T) {
	cases := []struct {
		model                 string
		total, conv, wino, fc int
	}{
		{AlexNet, 12, 5, 4, 3},
		{VGG16, 21, 9, 9, 3},
		{ResNet18, 17, 12, 4, 1},
	}
	for _, c := range cases {
		tasks, err := Tasks(c.model)
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != c.total {
			t.Errorf("%s: %d tasks want %d", c.model, len(tasks), c.total)
		}
		counts := map[Kind]int{}
		for _, task := range tasks {
			counts[task.Kind]++
		}
		if counts[Conv2D] != c.conv || counts[WinogradConv2D] != c.wino || counts[Dense] != c.fc {
			t.Errorf("%s: kinds %v want conv=%d wino=%d dense=%d",
				c.model, counts, c.conv, c.wino, c.fc)
		}
	}
}

func TestTaskIndicesSequential(t *testing.T) {
	for _, m := range Models {
		tasks := MustTasks(m)
		for i, task := range tasks {
			if task.Index != i+1 {
				t.Fatalf("%s task %d has Index %d", m, i, task.Index)
			}
			if task.Model != m {
				t.Fatalf("%s task has model %q", m, task.Model)
			}
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := Tasks("lenet"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := TaskByIndex("lenet", 1); err == nil {
		t.Fatal("unknown model accepted by TaskByIndex")
	}
}

func TestTaskByIndexBounds(t *testing.T) {
	if _, err := TaskByIndex(AlexNet, 0); err == nil {
		t.Fatal("L0 accepted")
	}
	if _, err := TaskByIndex(AlexNet, 13); err == nil {
		t.Fatal("L13 accepted for alexnet")
	}
	task, err := TaskByIndex(ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	if task.Kind != Conv2D {
		t.Fatalf("resnet-18 L7 kind = %v want conv2d", task.Kind)
	}
}

func TestConvShapeMath(t *testing.T) {
	// AlexNet conv1: 227x227, k=11, s=4, p=2 → 55x55.
	c := alexNetConvs[0].shape
	if c.OutH() != 55 || c.OutW() != 55 {
		t.Fatalf("alexnet conv1 out = %dx%d want 55x55", c.OutH(), c.OutW())
	}
	// Same-padding 3x3 stride 1 preserves dims.
	v := vggConvs[0].shape
	if v.OutH() != 224 || v.OutW() != 224 {
		t.Fatalf("vgg conv1 out = %dx%d want 224x224", v.OutH(), v.OutW())
	}
	// Stride-2 3x3 with pad 1 halves dims.
	r := resNetConvs[3].shape
	if r.OutH() != 28 || r.OutW() != 28 {
		t.Fatalf("resnet stage2 entry out = %dx%d want 28x28", r.OutH(), r.OutW())
	}
}

func TestFLOPsPositiveAndPlausible(t *testing.T) {
	// VGG-16 is the heaviest model of the three.
	var totals []int64
	for _, m := range []string{AlexNet, ResNet18, VGG16} {
		f, err := ModelFLOPs(m)
		if err != nil {
			t.Fatal(err)
		}
		if f <= 0 {
			t.Fatalf("%s FLOPs = %d", m, f)
		}
		totals = append(totals, f)
	}
	// VGG-16 is by far the heaviest (unique-task FLOPs; repeated layers
	// count once, so AlexNet and ResNet-18 land close together).
	if totals[2] < 10*totals[0] || totals[2] < 10*totals[1] {
		t.Fatalf("vgg-16 should dominate unique-task FLOPs: %v", totals)
	}
}

func TestDenseFLOPs(t *testing.T) {
	d := DenseShape{Batch: 1, In: 10, Out: 20}
	if got := d.FLOPs(); got != 400 {
		t.Fatalf("dense FLOPs = %d want 400", got)
	}
}

func TestWinogradTasksShareShapeWithConv(t *testing.T) {
	tasks := MustTasks(VGG16)
	var convShapes, winoShapes []ConvShape
	for _, task := range tasks {
		switch task.Kind {
		case Conv2D:
			convShapes = append(convShapes, task.Conv)
		case WinogradConv2D:
			winoShapes = append(winoShapes, task.Conv)
		}
	}
	if len(winoShapes) != len(convShapes) {
		t.Fatalf("VGG should have winograd for every conv: %d vs %d", len(winoShapes), len(convShapes))
	}
	for i := range winoShapes {
		if winoShapes[i] != convShapes[i] {
			t.Fatalf("winograd %d shape %v != conv shape %v", i, winoShapes[i], convShapes[i])
		}
		if winoShapes[i].Stride != 1 {
			t.Fatalf("winograd task with stride %d", winoShapes[i].Stride)
		}
	}
}

func TestSpecVector(t *testing.T) {
	tasks := MustTasks(AlexNet)
	for _, task := range tasks {
		v := task.SpecVector()
		if len(v) != SpecVectorLen {
			t.Fatalf("spec vector len %d want %d", len(v), SpecVectorLen)
		}
		if v[0] != float64(task.Kind) {
			t.Fatalf("spec[0] = %g want %g", v[0], float64(task.Kind))
		}
	}
	// Dense encoding occupies the tail slots.
	d := Task{Model: AlexNet, Index: 10, Kind: Dense, Dense: DenseShape{1, 9216, 4096}}
	v := d.SpecVector()
	if v[9] != 9216 || v[10] != 4096 {
		t.Fatalf("dense spec tail = %v", v[9:])
	}
}

func TestTaskNames(t *testing.T) {
	task, err := TaskByIndex(ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := task.Name(); got != "resnet-18.L7.conv2d" {
		t.Fatalf("name = %q", got)
	}
}

// The paper's Fig. 4 uses AlexNet L8 and VGG-16 L17 as winograd examples;
// keep the indexing stable.
func TestFigure4LayerIndices(t *testing.T) {
	l8, err := TaskByIndex(AlexNet, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l8.Kind != WinogradConv2D {
		t.Fatalf("alexnet L8 = %v want winograd", l8.Kind)
	}
	l17, err := TaskByIndex(VGG16, 17)
	if err != nil {
		t.Fatal(err)
	}
	if l17.Kind != WinogradConv2D {
		t.Fatalf("vgg-16 L17 = %v want winograd", l17.Kind)
	}
	l12, err := TaskByIndex(ResNet18, 12)
	if err != nil {
		t.Fatal(err)
	}
	if l12.Kind != Conv2D {
		t.Fatalf("resnet-18 L12 = %v want conv2d", l12.Kind)
	}
}

// TestNameAllocatesNothing checks that a task's name, which every
// simulated measurement hashes, is built once and then served without
// allocating, and reads as it always has.
func TestNameAllocatesNothing(t *testing.T) {
	task, err := TaskByIndex(ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s.L%d.%s", task.Model, task.Index, task.Kind)
	if task.Name() != want || want != "resnet-18.L7.conv2d" {
		t.Fatalf("name %q want %q", task.Name(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = task.Name() }); allocs != 0 {
		t.Fatalf("Task.Name allocates %v times per call", allocs)
	}
	odd := Task{Model: "m", Index: -3, Kind: Kind(9)}
	if got := odd.Name(); got != "m.L-3.kind(9)" {
		t.Fatalf("name %q", got)
	}
}

// TestNameConcurrent has goroutines name every task at once while the
// memo fills: each gets the name fmt would build.
func TestNameConcurrent(t *testing.T) {
	var tasks []Task
	for _, m := range Models {
		tasks = append(tasks, MustTasks(m)...)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, task := range tasks {
				if got, want := task.Name(), fmt.Sprintf("%s.L%d.%s", task.Model, task.Index, task.Kind); got != want {
					t.Errorf("name %q want %q", got, want)
				}
			}
		}()
	}
	wg.Wait()
}
