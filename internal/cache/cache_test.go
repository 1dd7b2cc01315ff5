package cache

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func testTask(t *testing.T) (workload.Task, *space.Space) {
	t.Helper()
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	return task, space.MustForTask(task)
}

func testEntry(t *testing.T, fp, device string, best int64, gflops float64) Entry {
	t.Helper()
	emb, err := EmbedDevice(device)
	if err != nil {
		t.Fatal(err)
	}
	return Entry{
		Fingerprint: fp,
		Device:      device,
		Embedding:   emb,
		BestConfig:  best,
		GFLOPS:      gflops,
	}
}

func openStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFingerprintNameIndependent(t *testing.T) {
	task, sp := testTask(t)
	fp := Fingerprint(task, sp)

	// Renaming the workload must not change the fingerprint: the cache
	// serves by shape, not by model name.
	renamed := task
	renamed.Model = "some-other-net"
	renamed.Index = 42
	if got := Fingerprint(renamed, space.MustForTask(renamed)); got != fp {
		t.Fatalf("renamed task changed fingerprint:\n%q\n%q", got, fp)
	}

	// A different shape must change it.
	other, err := workload.TaskByIndex(workload.AlexNet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(other, space.MustForTask(other)); got == fp {
		t.Fatalf("different shapes share fingerprint %q", fp)
	}
}

func TestPutGetExactHit(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	e := testEntry(t, "fp-a", "titan-xp", 11, 900)
	e.Schedule = "tile_f=[4 2 2 7]"
	if stored, err := s.Put(e); err != nil || !stored {
		t.Fatalf("Put = (%v, %v), want stored", stored, err)
	}
	got, ok := s.Get("fp-a", "titan-xp")
	if !ok {
		t.Fatal("exact lookup missed")
	}
	if got.BestConfig != 11 || got.GFLOPS != 900 || got.Schedule != e.Schedule {
		t.Fatalf("Get returned %+v", got)
	}
	if _, ok := s.Get("fp-a", "rtx-3090"); ok {
		t.Fatal("lookup for a different device hit — cross-device serving is forbidden")
	}
	if _, ok := s.Get("fp-other", "titan-xp"); ok {
		t.Fatal("lookup for a different fingerprint hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutImprovementOnly(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	if stored, _ := s.Put(testEntry(t, "fp", "titan-xp", 1, 500)); !stored {
		t.Fatal("first put not stored")
	}
	if stored, _ := s.Put(testEntry(t, "fp", "titan-xp", 2, 400)); stored {
		t.Fatal("worse entry stored")
	}
	if stored, _ := s.Put(testEntry(t, "fp", "titan-xp", 3, 500)); stored {
		t.Fatal("tied entry stored (ties must keep the incumbent)")
	}
	if stored, _ := s.Put(testEntry(t, "fp", "titan-xp", 4, 600)); !stored {
		t.Fatal("improvement not stored")
	}
	got, ok := s.Get("fp", "titan-xp")
	if !ok || got.BestConfig != 4 || got.GFLOPS != 600 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if st := s.Stats(); st.Puts != 2 || st.PutSkips != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetEmbeddingDriftMiss(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	e := testEntry(t, "fp", "titan-xp", 5, 800)
	// Simulate a store written when the spec behind "titan-xp" differed:
	// the config was tuned for other hardware, so serving it is wrong.
	e.Embedding[0] += 1.0
	if _, err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("fp", "titan-xp"); ok {
		t.Fatal("stale embedding served as an exact hit")
	}
}

func TestReopenPreservesBest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s := openStore(t, path)
	if _, err := s.Put(testEntry(t, "fp", "titan-xp", 1, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry(t, "fp", "titan-xp", 2, 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testEntry(t, "fp", "rtx-3090", 3, 900)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, path)
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d want 2", re.Len())
	}
	got, ok := re.Get("fp", "titan-xp")
	if !ok || got.BestConfig != 2 || got.GFLOPS != 700 {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
}

func TestNearestOrderingAndExclusion(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	devices := []string{"titan-xp", "rtx-2080-ti", "gtx-1080-ti", "rtx-2060"}
	for i, d := range devices {
		if _, err := s.Put(testEntry(t, "fp", d, int64(i+1), 500)); err != nil {
			t.Fatal(err)
		}
	}
	// Entry under a different fingerprint must never appear.
	if _, err := s.Put(testEntry(t, "fp-other", "rtx-3090", 9, 999)); err != nil {
		t.Fatal(err)
	}

	got := s.Nearest("fp", "titan-xp", 10)
	if len(got) != 3 {
		t.Fatalf("Nearest returned %d donors, want 3 (self and other fingerprints excluded)", len(got))
	}
	for _, e := range got {
		if e.Device == "titan-xp" || e.Fingerprint != "fp" {
			t.Fatalf("Nearest returned %s/%s", e.Fingerprint, e.Device)
		}
	}
	// Distances must be non-decreasing.
	query, err := EmbedDevice("titan-xp")
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, e := range got {
		d := 0.0
		for i := range query {
			diff := query[i] - e.Embedding[i]
			d += diff * diff
		}
		if d < prev {
			t.Fatalf("Nearest not sorted by distance: %v then %v", prev, d)
		}
		prev = d
	}
	// k caps the result.
	if got := s.Nearest("fp", "titan-xp", 2); len(got) != 2 {
		t.Fatalf("Nearest(k=2) returned %d", len(got))
	}
	// Deterministic across calls.
	a, b := s.Nearest("fp", "titan-xp", 3), s.Nearest("fp", "titan-xp", 3)
	for i := range a {
		if a[i].Device != b[i].Device {
			t.Fatalf("Nearest order flapped: %v vs %v", a, b)
		}
	}
}

func TestNearestTieBreaksByDeviceName(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	emb, err := EmbedDevice("rtx-3090")
	if err != nil {
		t.Fatal(err)
	}
	// Two donors at the exact same point in embedding space: order must
	// fall back to device name, not map iteration order.
	for _, d := range []string{"rtx-2070-super", "rtx-2070"} {
		e := testEntry(t, "fp", d, 1, 500)
		e.Embedding = append([]float64(nil), emb...)
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Nearest("fp", "rtx-3090", 2)
	if len(got) != 2 || got[0].Device != "rtx-2070" || got[1].Device != "rtx-2070-super" {
		t.Fatalf("tied donors out of order: %v, %v", got[0].Device, got[1].Device)
	}
}

func TestWarmStartPayload(t *testing.T) {
	_, sp := testTask(t)
	s := openStore(t, filepath.Join(t.TempDir(), "cache.jsonl"))

	a := testEntry(t, "fp", "rtx-2080-ti", 100, 800)
	a.Samples = []Sample{
		{Config: 100, GFLOPS: 800},
		{Config: 200, GFLOPS: 400},
		{Config: sp.Size() + 5, GFLOPS: 999}, // stale index: must be dropped
	}
	b := testEntry(t, "fp", "gtx-1080-ti", 100, 300) // same best as a: dedup
	b.Samples = []Sample{{Config: 300, GFLOPS: 150}}
	for _, e := range []Entry{a, b} {
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}

	ws := s.WarmStart("fp", "titan-xp", sp, 3)
	if ws == nil {
		t.Fatal("WarmStart returned nil with two donors present")
	}
	if len(ws.Seeds) != 1 || ws.Seeds[0] != 100 {
		t.Fatalf("Seeds = %v, want deduped [100]", ws.Seeds)
	}
	if len(ws.Donors) != 2 {
		t.Fatalf("Donors = %v", ws.Donors)
	}
	// 3 usable samples (stale one dropped), each normalized by its own
	// donor's best: a contributes 800/800 and 400/800, b contributes
	// 150/300. The stale sample must not inflate a's scale.
	if len(ws.Features) != 3 || len(ws.GFLOPS) != 3 {
		t.Fatalf("got %d features / %d gflops, want 3", len(ws.Features), len(ws.GFLOPS))
	}
	norm := append([]float64(nil), ws.GFLOPS...)
	sort.Float64s(norm)
	want := []float64{0.5, 0.5, 1.0}
	for i := range want {
		if math.Abs(norm[i]-want[i]) > 1e-12 {
			t.Fatalf("normalized GFLOPS = %v, want %v", norm, want)
		}
	}
	for i, f := range ws.Features {
		if len(f) != sp.FeatureLen() {
			t.Fatalf("Features[%d] has %d dims, want %d", i, len(f), sp.FeatureLen())
		}
	}

	if ws := s.WarmStart("fp-unknown", "titan-xp", sp, 3); ws != nil {
		t.Fatalf("unknown fingerprint produced warm start %+v", ws)
	}
	// Building a payload is no warm start: Decision.Apply counts one
	// when a tuner takes it (TestDecide).
	if st := s.Stats(); st.WarmStarts != 0 {
		t.Fatalf("stats = %+v, want no warm start counted", st)
	}
}

func TestShrinkBudget(t *testing.T) {
	b := tuner.Budget{MaxMeasurements: 100, MaxGPUSeconds: 10, Patience: 3, Epsilon: 0.01}
	got := ShrinkBudget(b, 0.7)
	if got.MaxMeasurements != 70 || math.Abs(got.MaxGPUSeconds-7) > 1e-12 {
		t.Fatalf("ShrinkBudget = %+v", got)
	}
	if got.Patience != 3 || got.Epsilon != 0.01 {
		t.Fatalf("ShrinkBudget dropped convergence params: %+v", got)
	}
	// Rounds up, never below one measurement.
	if got := ShrinkBudget(tuner.Budget{MaxMeasurements: 3}, 0.5); got.MaxMeasurements != 2 {
		t.Fatalf("ceil: got %d want 2", got.MaxMeasurements)
	}
	if got := ShrinkBudget(tuner.Budget{MaxMeasurements: 1}, 0.1); got.MaxMeasurements != 1 {
		t.Fatalf("floor: got %d want 1", got.MaxMeasurements)
	}
	// Unset bounds stay unset; out-of-range fractions are identity.
	if got := ShrinkBudget(tuner.Budget{MaxMeasurements: 10}, 0.7); got.MaxGPUSeconds != 0 {
		t.Fatalf("unset GPU bound became %v", got.MaxGPUSeconds)
	}
	if got := ShrinkBudget(b, 0); got != b {
		t.Fatalf("frac=0 changed budget: %+v", got)
	}
	if got := ShrinkBudget(b, 1.5); got != b {
		t.Fatalf("frac>1 changed budget: %+v", got)
	}
}

func TestEntryFromResult(t *testing.T) {
	task, sp := testTask(t)
	res := &tuner.Result{
		TaskName:     task.Name(),
		BestIndex:    7,
		BestGFLOPS:   1234,
		BestTimeMS:   0.5,
		Measurements: 64,
		TopMeasured: []tuner.Measured{
			{Index: 7, GFLOPS: 1234},
			{Index: 9, GFLOPS: 1000},
		},
	}
	e, ok := EntryFromResult("fp", "titan-xp", res, sp)
	if !ok {
		t.Fatal("EntryFromResult rejected a valid result")
	}
	if e.BestConfig != 7 || e.GFLOPS != 1234 || e.Measurements != 64 || e.Schedule == "" {
		t.Fatalf("entry = %+v", e)
	}
	if len(e.Samples) != 2 || e.Samples[0].Config != 7 || e.Samples[1].GFLOPS != 1000 {
		t.Fatalf("samples = %+v", e.Samples)
	}
	if err := e.validate(); err != nil {
		t.Fatal(err)
	}

	if _, ok := EntryFromResult("fp", "titan-xp", nil, sp); ok {
		t.Fatal("nil result accepted")
	}
	if _, ok := EntryFromResult("fp", "titan-xp", &tuner.Result{BestIndex: -1}, sp); ok {
		t.Fatal("result without a best accepted")
	}
}
