package nn

import (
	"sync"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// TestInferMatchesForward pins the cache-free inference path to the
// training-time forward pass, which writes into layer workspaces.
func TestInferMatchesForward(t *testing.T) {
	g := rng.New(1)
	net := NewMLP([]int{6, 16, 8, 2}, ReLU, g)
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = g.NormFloat64()
		}
		want := net.Forward(mat.NewFromData(1, len(x), x)).Row(0)
		got := net.Infer(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Infer[%d] = %v want %v", i, got[i], want[i])
			}
		}
	}
}

// TestInferConcurrent exercises the thread-safety contract: many
// goroutines evaluating a frozen network must agree with the serial
// answer (run under -race in `make check`).
func TestInferConcurrent(t *testing.T) {
	g := rng.New(2)
	net := NewMLP([]int{4, 12, 1}, Tanh, g)
	inputs := make([][]float64, 64)
	want := make([]float64, len(inputs))
	for i := range inputs {
		x := make([]float64, 4)
		for j := range x {
			x[j] = g.NormFloat64()
		}
		inputs[i] = x
		want[i] = net.Infer(x)[0]
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(inputs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range inputs {
				if got := net.Infer(x)[0]; got != want[i] {
					errs <- "concurrent Infer diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}
