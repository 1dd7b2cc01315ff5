package space

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func TestFactorizationsKnown(t *testing.T) {
	got := factorizations(12, 2)
	want := [][]int{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {6, 2}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("factorizations(12,2) = %v want %v", got, want)
		}
	}
}

func TestFactorizationsProductInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := rng.New(seed)
		n := 1 + g.Intn(200)
		k := 1 + g.Intn(4)
		for _, tuple := range factorizations(n, k) {
			if len(tuple) != k {
				return false
			}
			p := 1
			for _, v := range tuple {
				p *= v
			}
			if p != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorizationCountBinomial(t *testing.T) {
	// For n = 2^e, ordered k-factorizations count C(e+k-1, k-1).
	if got := countFactorizations(512, 4); got != 220 { // C(12,3)
		t.Fatalf("count(512,4) = %d want 220", got)
	}
	if got := countFactorizations(64, 2); got != 7 {
		t.Fatalf("count(64,2) = %d want 7", got)
	}
}

func TestDivisors(t *testing.T) {
	got := divisors(36)
	want := []int{1, 2, 3, 4, 6, 9, 12, 18, 36}
	if len(got) != len(want) {
		t.Fatalf("divisors(36) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divisors(36) = %v want %v", got, want)
		}
	}
}

func taskOf(t *testing.T, model string, l int) workload.Task {
	t.Helper()
	task, err := workload.TaskByIndex(model, l)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestForTaskTemplates(t *testing.T) {
	conv := MustForTask(taskOf(t, workload.ResNet18, 7))
	if conv.Template != "conv2d" || conv.NumKnobs() != 8 {
		t.Fatalf("conv template %q knobs %d", conv.Template, conv.NumKnobs())
	}
	wino := MustForTask(taskOf(t, workload.ResNet18, 13))
	if wino.Template != "winograd_conv2d" || wino.NumKnobs() != 5 {
		t.Fatalf("wino template %q knobs %d", wino.Template, wino.NumKnobs())
	}
	dense := MustForTask(taskOf(t, workload.ResNet18, 17))
	if dense.Template != "dense" || dense.NumKnobs() != 4 {
		t.Fatalf("dense template %q knobs %d", dense.Template, dense.NumKnobs())
	}
}

// The paper notes VGG-16's first layers exceed 2×10⁸ configurations; our
// template family reaches the same order of magnitude.
func TestSpaceSizeAstronomical(t *testing.T) {
	s := MustForTask(taskOf(t, workload.VGG16, 2)) // 64→64 @ 224×224
	if s.Size() < 100_000_000 {
		t.Fatalf("vgg conv2 space = %d want ≥ 1e8", s.Size())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	s := MustForTask(taskOf(t, workload.ResNet18, 7))
	f := func(seed int64) bool {
		g := rng.New(seed)
		idx := s.RandomIndex(g)
		cfg := s.FromIndex(idx)
		return s.ToIndex(cfg) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromIndexBounds(t *testing.T) {
	s := MustForTask(taskOf(t, workload.AlexNet, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	s.FromIndex(s.Size())
}

func TestNeighborStaysInSpace(t *testing.T) {
	s := MustForTask(taskOf(t, workload.AlexNet, 1))
	g := rng.New(3)
	idx := s.RandomIndex(g)
	for i := 0; i < 500; i++ {
		idx = s.Neighbor(idx, g)
		if idx < 0 || idx >= s.Size() {
			t.Fatalf("neighbor escaped space: %d", idx)
		}
	}
}

func TestNeighborChangesOneKnob(t *testing.T) {
	s := MustForTask(taskOf(t, workload.ResNet18, 7))
	g := rng.New(4)
	for i := 0; i < 100; i++ {
		idx := s.RandomIndex(g)
		next := s.Neighbor(idx, g)
		a, b := s.FromIndex(idx), s.FromIndex(next)
		diff := 0
		for k := range a {
			if a[k] != b[k] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("neighbor changed %d knobs", diff)
		}
	}
}

func TestFeatureLenConsistent(t *testing.T) {
	for _, model := range workload.Models {
		for _, task := range workload.MustTasks(model) {
			s := MustForTask(task)
			g := rng.New(5)
			feats := s.FeaturesAt(s.RandomIndex(g))
			if len(feats) != s.FeatureLen() {
				t.Fatalf("%s: features %d != FeatureLen %d", task.Name(), len(feats), s.FeatureLen())
			}
		}
	}
}

func TestConv2DFeatureWidth(t *testing.T) {
	s := MustForTask(taskOf(t, workload.ResNet18, 7))
	// 3 four-part splits + 3 two-part splits + 2 categorical = 12+6+2 = 20.
	if got := s.FeatureLen(); got != 20 {
		t.Fatalf("conv2d feature len = %d want 20", got)
	}
}

func TestDeriveConvResources(t *testing.T) {
	task := taskOf(t, workload.ResNet18, 7) // conv 128→256 28×28 stride 2
	s := MustForTask(task)
	g := rng.New(6)
	for i := 0; i < 200; i++ {
		cfg := s.FromIndex(s.RandomIndex(g))
		res, err := Derive(task, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ThreadsPerBlock < 1 || res.Blocks < 1 || res.OutputsPerThread < 1 {
			t.Fatalf("non-positive resources: %+v", res)
		}
		if res.SharedMemBytes <= 0 || res.RegsPerThread <= 0 {
			t.Fatalf("non-positive memory resources: %+v", res)
		}
		// threads × blocks × outputs ≥ total outputs (vthreads replicate).
		total := int64(task.Conv.OutC) * int64(task.Conv.OutH()) * int64(task.Conv.OutW())
		covered := res.Blocks * int64(res.ThreadsPerBlock) * int64(res.OutputsPerThread)
		if covered < total {
			t.Fatalf("config covers %d outputs of %d: %+v", covered, total, res)
		}
	}
}

func TestDeriveThreadProductMatchesRoles(t *testing.T) {
	task := taskOf(t, workload.AlexNet, 3)
	s := MustForTask(task)
	// Hand-build a config: pick local indices 0 (all-ones leading factors).
	cfg := make(Config, s.NumKnobs())
	res, err := Derive(task, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local index 0 of a split is [1, 1, ..., axis]: all work in inner.
	if res.ThreadsPerBlock != 1 {
		t.Fatalf("threads = %d want 1 for all-inner config", res.ThreadsPerBlock)
	}
	if res.Blocks != 1 {
		t.Fatalf("blocks = %d want 1", res.Blocks)
	}
}

func TestDeriveUnrollKnobs(t *testing.T) {
	task := taskOf(t, workload.AlexNet, 1)
	s := MustForTask(task)
	cfg := make(Config, s.NumKnobs())
	// Set unroll to its largest option and explicit on.
	_, ui, err := s.KnobByName(KnobUnroll)
	if err != nil {
		t.Fatal(err)
	}
	_, ei, err := s.KnobByName(KnobUnrollE)
	if err != nil {
		t.Fatal(err)
	}
	cfg[ui] = 2
	cfg[ei] = 1
	res, err := Derive(task, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrollStep != 1500 || !res.UnrollExplicit {
		t.Fatalf("unroll = %d/%v want 1500/true", res.UnrollStep, res.UnrollExplicit)
	}
}

func TestDeriveWinogradAndDense(t *testing.T) {
	for _, l := range []int{13, 17} { // resnet-18 winograd + dense
		task := taskOf(t, workload.ResNet18, l)
		s := MustForTask(task)
		g := rng.New(int64(l))
		for i := 0; i < 100; i++ {
			res, err := Derive(task, s, s.FromIndex(s.RandomIndex(g)))
			if err != nil {
				t.Fatal(err)
			}
			if res.ThreadsPerBlock < 1 || res.SharedMemBytes <= 0 {
				t.Fatalf("%s: bad resources %+v", task.Name(), res)
			}
		}
	}
}

func TestDescribeMentionsKnobs(t *testing.T) {
	task := taskOf(t, workload.AlexNet, 1)
	s := MustForTask(task)
	desc := s.Describe(s.FromIndex(0))
	for _, name := range []string{KnobTileF, KnobTileY, KnobUnroll} {
		if !containsStr(desc, name) {
			t.Fatalf("Describe missing %q: %s", name, desc)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestKnobByNameMissing(t *testing.T) {
	s := MustForTask(taskOf(t, workload.AlexNet, 1))
	if _, _, err := s.KnobByName("tile_zzz"); err == nil {
		t.Fatal("missing knob did not error")
	}
}

func TestSignatureStableAndStructural(t *testing.T) {
	taskA := taskOf(t, workload.AlexNet, 3)
	sigA := MustForTask(taskA).Signature()
	if len(sigA) != 16 {
		t.Fatalf("Signature length = %d want 16: %q", len(sigA), sigA)
	}
	if got := MustForTask(taskA).Signature(); got != sigA {
		t.Fatalf("Signature not stable across rebuilds: %q vs %q", got, sigA)
	}

	// A different layer shape factorizes differently, so the signature
	// must change even though template and knob names match.
	taskB := taskOf(t, workload.AlexNet, 4)
	if sigB := MustForTask(taskB).Signature(); sigB == sigA {
		t.Fatalf("different shapes share signature %q", sigA)
	}

	// The task *name* must not influence the signature: a config index
	// means the same schedule regardless of what the workload is called.
	renamed := taskA
	renamed.Model = "some-other-net"
	renamed.Index = 99
	if got := MustForTask(renamed).Signature(); got != sigA {
		t.Fatalf("renaming the task changed the signature: %q vs %q", got, sigA)
	}
}

// TestDeriveAllocatesNothing pins Derive, which every simulated
// measurement and every sampler validity check runs, at zero allocations
// for each template.
func TestDeriveAllocatesNothing(t *testing.T) {
	g := rng.New(9)
	for _, ref := range []struct {
		model string
		l     int
	}{{workload.ResNet18, 7}, {workload.ResNet18, 13}, {workload.AlexNet, 11}} {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			t.Fatal(err)
		}
		sp := MustForTask(task)
		cfg := sp.FromIndex(sp.RandomIndex(g))
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Derive(task, sp, cfg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Derive allocates %v times per call", task.Name(), allocs)
		}
	}
}

// TestCachedSplitTableBuildsOnce has concurrent first users of one key
// share a single table: the first build is singleflight.
func TestCachedSplitTableBuildsOnce(t *testing.T) {
	const users = 8
	n, k := 2*3*5*7*11*13, 4 // a key no template uses
	got := make([]*splitTable, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = cachedSplitTable(n, k)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, tab := range got {
		if tab != got[0] {
			t.Fatalf("user %d got a second table for (%d, %d)", i, n, k)
		}
	}
	if want := len(factorizations(n, k)) * k; len(got[0].factors) != want {
		t.Fatalf("table holds %d factors want %d", len(got[0].factors), want)
	}
}
