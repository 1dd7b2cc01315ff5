package measure

import (
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func setupTask(t *testing.T) (workload.Task, *space.Space) {
	t.Helper()
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	return task, space.MustForTask(task)
}

func TestLocalMeasurer(t *testing.T) {
	task, sp := setupTask(t)
	l, err := NewLocal(hwspec.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	if l.DeviceName() != hwspec.TitanXp {
		t.Fatalf("device = %q", l.DeviceName())
	}
	g := rng.New(1)
	idxs := []int64{sp.RandomIndex(g), sp.RandomIndex(g), sp.RandomIndex(g)}
	results, err := l.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Matches direct device measurement.
	for i, idx := range idxs {
		if want := l.Device().MeasureIndex(task, sp, idx); results[i] != want {
			t.Fatalf("result %d mismatch", i)
		}
	}
}

func TestLocalRejectsBadIndex(t *testing.T) {
	task, sp := setupTask(t)
	l := MustNewLocal(hwspec.TitanXp)
	if _, err := l.MeasureBatch(task, sp, []int64{sp.Size()}); err == nil {
		t.Fatal("out-of-space index accepted")
	}
	if _, err := l.MeasureBatch(task, sp, []int64{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestNewLocalUnknownGPU(t *testing.T) {
	if _, err := NewLocal("gpu-that-does-not-exist"); err == nil {
		t.Fatal("unknown GPU accepted")
	}
}

func TestRPCEndToEnd(t *testing.T) {
	task, sp := setupTask(t)
	srv, err := NewServer([]string{hwspec.TitanXp, hwspec.RTX3090})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote, err := Dial(addr, hwspec.RTX3090)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.DeviceName() != hwspec.RTX3090 {
		t.Fatalf("device = %q", remote.DeviceName())
	}

	g := rng.New(2)
	idxs := []int64{sp.RandomIndex(g), sp.RandomIndex(g)}
	got, err := remote.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	// Remote results must equal local simulation: same device model.
	local := MustNewLocal(hwspec.RTX3090)
	want, err := local.MeasureBatch(task, sp, idxs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rpc result %d = %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestRPCDialUnknownDevice(t *testing.T) {
	srv, err := NewServer([]string{hwspec.TitanXp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Dial(addr, hwspec.RTX3090); err == nil {
		t.Fatal("dial to unhosted device succeeded")
	}
}

func TestRPCServerRejectsBadRequests(t *testing.T) {
	srv, err := NewServer([]string{hwspec.TitanXp})
	if err != nil {
		t.Fatal(err)
	}
	var reply MeasureReply
	if err := srv.Measure(MeasureArgs{Device: "nope", Model: workload.AlexNet, TaskIndex: 1}, &reply); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := srv.Measure(MeasureArgs{Device: hwspec.TitanXp, Model: "nope", TaskIndex: 1}, &reply); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := srv.Measure(MeasureArgs{Device: hwspec.TitanXp, Model: workload.AlexNet, TaskIndex: 1,
		Indices: []int64{-5}}, &reply); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestNewServerUnknownGPU(t *testing.T) {
	if _, err := NewServer([]string{"nope"}); err == nil {
		t.Fatal("unknown GPU accepted by server")
	}
}
