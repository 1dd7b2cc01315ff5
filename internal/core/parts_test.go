package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoComputesOncePerKey sends concurrent first requests for one key
// and for a second key: each key computes once, every request gets its
// key's value, and a failed computation's error is kept like a value.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m memo[string, *int]
	var runs atomic.Int64
	compute := func(v int) func() (*int, error) {
		return func() (*int, error) {
			runs.Add(1)
			time.Sleep(5 * time.Millisecond) // hold the first request in compute
			return &v, nil
		}
	}
	const requests = 16
	got := make([]*int, requests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			key, v := "a", 1
			if i%2 == 1 {
				key, v = "b", 2
			}
			p, err := m.get(key, compute(v))
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d computations for 2 keys", n)
	}
	for i, p := range got {
		if p != got[i%2] || *p != 1+i%2 {
			t.Fatalf("request %d got %v", i, p)
		}
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.get("c", func() (*int, error) { runs.Add(1); return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("request %d: err = %v want %v", i, err, boom)
		}
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("a failed key computed %d times want 1", n-2)
	}
}

// TestMemoPanicLeavesError checks that a computation that panics leaves
// its key failed, not holding a zero value as if it had succeeded.
func TestMemoPanicLeavesError(t *testing.T) {
	var m memo[int, *int]
	func() {
		defer func() { _ = recover() }()
		_, _ = m.get(1, func() (*int, error) { panic("boom") })
	}()
	if v, err := m.get(1, func() (*int, error) { return new(int), nil }); !errors.Is(err, errPartPanicked) || v != nil {
		t.Fatalf("after a panic: %v, %v", v, err)
	}
}
