package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// warmTuner is a tuner that accepts warm starts, recording the last one.
type warmTuner struct {
	tuner.Random
	got *WarmStart
}

func (w *warmTuner) SetWarmStart(ws *WarmStart) { w.got = ws }

// TestDecide drives the shared cache policy through each of its outcomes:
// the decision, its cache_lookup span, the budget Apply hands the
// session, and what Record writes back.
func TestDecide(t *testing.T) {
	task, sp := testTask(t)
	fp := Fingerprint(task, sp)
	donor := testEntry(t, fp, "rtx-2080-ti", 3, 800)
	donor.Samples = []Sample{{Config: 3, GFLOPS: 800}, {Config: 9, GFLOPS: 400}}
	exact := testEntry(t, fp, "titan-xp", 5, 900)
	exact.TimeMS = 0.25
	stale := testEntry(t, fp, "titan-xp", sp.Size(), 900)
	full := tuner.Budget{MaxMeasurements: 48}

	cases := []struct {
		name       string
		noStore    bool
		entries    []Entry
		readonly   bool
		plainTuner bool // a tuner that is not WarmStartable
		wantHit    bool
		wantDonors int
		wantBudget int
		wantWarm   bool
	}{
		{name: "nil store", noStore: true, wantBudget: 48},
		{name: "exact hit", entries: []Entry{exact, donor}, wantHit: true, wantBudget: 48},
		{name: "out-of-space hit warm-starts", entries: []Entry{stale, donor}, wantDonors: 1, wantBudget: 34, wantWarm: true},
		{name: "miss with donors", entries: []Entry{donor}, wantDonors: 1, wantBudget: 34, wantWarm: true},
		{name: "miss without donors", wantBudget: 48},
		{name: "tuner not warm-startable", entries: []Entry{donor}, plainTuner: true, wantDonors: 1, wantBudget: 48},
		{name: "readonly store", entries: []Entry{donor}, readonly: true, wantDonors: 1, wantBudget: 34, wantWarm: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.jsonl")
			var s *Store
			if !tc.noStore {
				w := openStore(t, path)
				for _, e := range tc.entries {
					if _, err := w.Put(e); err != nil {
						t.Fatal(err)
					}
				}
				s = w
				if tc.readonly {
					var err error
					if s, err = OpenReadOnly(path); err != nil {
						t.Fatal(err)
					}
				}
			}

			reg := telemetry.NewRegistry()
			if s != nil {
				s.SetMetrics(reg)
			}
			var trace bytes.Buffer
			parent := telemetry.SpanContext{TraceID: "job-1", SpanID: "job-span"}
			d := s.Decide(telemetry.NewTracer(&trace, nil), parent, task, sp, "titan-xp")
			if d.Hit != tc.wantHit {
				t.Fatalf("Hit = %v, want %v", d.Hit, tc.wantHit)
			}
			donors := 0
			if d.warm != nil {
				donors = len(d.warm.Donors)
			}
			if donors != tc.wantDonors {
				t.Fatalf("%d donors, want %d", donors, tc.wantDonors)
			}
			checkLookupSpan(t, trace.Bytes(), !tc.noStore, tc.wantHit, tc.wantDonors)

			if tc.wantHit {
				res := d.HitResult()
				if res.TunerName != "glimpse (cache)" || res.TaskName != task.Name() ||
					res.BestIndex != exact.BestConfig || res.BestGFLOPS != exact.GFLOPS ||
					res.BestTimeMS != exact.TimeMS || res.Measurements != 0 {
					t.Fatalf("hit result %+v", res)
				}
				return
			}

			var tn tuner.Tuner = tuner.Random{}
			wt := &warmTuner{}
			if !tc.plainTuner {
				tn = wt
			}
			budget, warm := d.Apply(tn, full)
			if budget.MaxMeasurements != tc.wantBudget || warm != tc.wantWarm {
				t.Fatalf("Apply = (%d measurements, warm %v), want (%d, %v)",
					budget.MaxMeasurements, warm, tc.wantBudget, tc.wantWarm)
			}
			if (wt.got != nil) != tc.wantWarm || (wt.got != nil && wt.got != d.warm) {
				t.Fatalf("tuner got warm start %+v, decision has %+v", wt.got, d.warm)
			}
			// A warm start counts only when the tuner took it.
			wantCount := 0
			if tc.wantWarm {
				wantCount = 1
			}
			if s != nil {
				if st, c := s.Stats().WarmStarts, reg.Counter("cache_warm_start").Value(); st != wantCount || c != int64(wantCount) {
					t.Fatalf("warm starts counted %d (counter %d), want %d", st, c, wantCount)
				}
			}

			before, _ := os.ReadFile(path)
			res := &tuner.Result{TaskName: task.Name(), BestIndex: 7, BestGFLOPS: 1000, Measurements: 34}
			if err := d.Record("resnet-18", res); err != nil {
				t.Fatal(err)
			}
			after, _ := os.ReadFile(path)
			switch {
			case tc.noStore:
				if len(after) != 0 {
					t.Fatalf("nil store wrote %q", after)
				}
			case tc.readonly:
				if !bytes.Equal(before, after) {
					t.Fatalf("readonly Record modified the file:\nbefore: %s\nafter: %s", before, after)
				}
				if st := s.Stats(); st.Puts != 0 || st.PutSkips != 1 {
					t.Fatalf("readonly stats = %+v, want 0 puts and 1 skip", st)
				}
			default:
				e, ok := s.Get(fp, "titan-xp")
				if !ok || e.BestConfig != 7 || e.Model != "resnet-18" || e.TaskIndex != task.Index {
					t.Fatalf("Record stored %+v (found %v)", e, ok)
				}
			}
		})
	}
}

// checkLookupSpan asserts the trace holds exactly one cache_lookup span,
// parented under the caller's span, with the decision's hit and donor
// count — or no span at all when there was no store to consult.
func checkLookupSpan(t *testing.T, trace []byte, want, hit bool, donors int) {
	t.Helper()
	var spans []telemetry.SpanEvent
	err := tlog.ReadJSONLines(bytes.NewReader(trace), func(line []byte) error {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		spans = append(spans, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !want {
		if len(spans) != 0 {
			t.Fatalf("nil store traced %+v", spans)
		}
		return
	}
	if len(spans) != 1 {
		t.Fatalf("%d trace events, want one cache_lookup span", len(spans))
	}
	ev := spans[0]
	if ev.Stage != telemetry.StageCacheLookup || ev.ParentID != "job-span" || ev.TraceID != "job-1" {
		t.Fatalf("span %+v, want cache_lookup under job-span", ev)
	}
	if ev.Attrs["hit"] != hit || ev.Attrs["donors"] != float64(donors) {
		t.Fatalf("span attrs %v, want hit %v donors %d", ev.Attrs, hit, donors)
	}
}
