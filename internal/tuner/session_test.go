package tuner

import (
	"reflect"
	"testing"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// parityMeasurer reports even indices valid at idx GFLOPS and odd ones
// invalid.
type parityMeasurer struct{}

func (parityMeasurer) MeasureBatch(_ workload.Task, _ *space.Space, idxs []int64) ([]gpusim.Result, error) {
	out := make([]gpusim.Result, len(idxs))
	for i, idx := range idxs {
		out[i] = gpusim.Result{Valid: idx%2 == 0, GFLOPS: float64(idx), CostSec: 1}
	}
	return out, nil
}

func (parityMeasurer) DeviceName() string { return "parity-test" }

// TestSessionHistory: MeasureBatch appends every measurement to the
// history in order (invalid ones at 0), the first batch alone becomes
// InitialBatch, the visited set holds every measured index plus one
// reserved with Visit, and TopMeasured keeps each config's best valid
// value once.
func TestSessionHistory(t *testing.T) {
	task, sp, _ := testSetup(t)
	s, err := NewSession("test", task, sp, parityMeasurer{}, Budget{MaxMeasurements: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range [][]int64{{4, 3, 8}, {8, 7, 2}} {
		if i == 1 {
			s.Visit(40) // the visited set is built here, from the first batch
		}
		if _, err := s.MeasureBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Indices(), []int64{4, 3, 8, 8, 7, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v want %v", got, want)
	}
	if got, want := s.Values(), []float64{4, 0, 8, 8, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Values = %v want %v", got, want)
	}
	feats := s.Features()
	if len(feats) != 6 {
		t.Fatalf("Features has %d rows want 6", len(feats))
	}
	for i, idx := range s.Indices() {
		if !reflect.DeepEqual(feats[i], sp.FeaturesAt(idx)) {
			t.Fatalf("Features[%d] is not the features of index %d", i, idx)
		}
	}
	for _, idx := range []int64{4, 3, 8, 7, 2, 40} {
		if !s.Visited(idx) {
			t.Fatalf("index %d not visited", idx)
		}
	}
	if s.Visited(6) {
		t.Fatal("index 6 visited but never measured or reserved")
	}
	res := s.Finish()
	if want := []float64{4, 0, 8}; !reflect.DeepEqual(res.InitialBatch, want) {
		t.Fatalf("InitialBatch = %v want %v", res.InitialBatch, want)
	}
	if want := []Measured{{8, 8}, {4, 4}, {2, 2}}; !reflect.DeepEqual(res.TopMeasured, want) {
		t.Fatalf("TopMeasured = %v want %v", res.TopMeasured, want)
	}
}
