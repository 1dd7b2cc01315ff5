package cache

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// WarmStart is what a cache miss hands the tuner: transferred priors from
// the nearest donor devices that already tuned the same workload.
type WarmStart struct {
	// Seeds are donor best configurations (nearest donor first, deduped);
	// they join the §3.1 initial measurement batch so the first hardware
	// results land where a neighbor SKU already found performance.
	Seeds []int64
	// Features/GFLOPS are donor measurements featurized through the target
	// space, each donor's values normalized by its own best so only the
	// transferable *ranking* crosses devices; they pre-train the surrogate
	// before the first target measurement exists.
	Features [][]float64
	GFLOPS   []float64
	// Donors names the contributing devices, nearest first.
	Donors []string
}

// WarmStartable is the hook a tuner implements to accept transferred
// warm-start state (core.Glimpse does).
type WarmStartable interface {
	SetWarmStart(*WarmStart)
}

// WarmStart builds the transfer payload for a cache miss from the k
// nearest donors, or returns nil when the store knows no donor for the
// fingerprint. Donor configs that fall outside the target space (a stale
// entry from a reshaped template, guarded against by the fingerprint but
// re-checked here) are dropped rather than trusted.
func (s *Store) WarmStart(fingerprint, device string, sp *space.Space, k int) *WarmStart {
	donors := s.Nearest(fingerprint, device, k)
	if len(donors) == 0 {
		return nil
	}
	ws := &WarmStart{}
	seen := map[int64]bool{}
	for _, d := range donors {
		if d.BestConfig >= sp.Size() {
			continue
		}
		ws.Donors = append(ws.Donors, d.Device)
		if !seen[d.BestConfig] {
			seen[d.BestConfig] = true
			ws.Seeds = append(ws.Seeds, d.BestConfig)
		}
		usable := d.Samples[:0:0]
		scale := d.GFLOPS
		for _, smp := range d.Samples {
			if smp.Config < 0 || smp.Config >= sp.Size() {
				continue
			}
			usable = append(usable, smp)
			if smp.GFLOPS > scale {
				scale = smp.GFLOPS
			}
		}
		if scale <= 0 {
			continue
		}
		// Entries store samples best-first; cap each donor's contribution so
		// a few donors cannot crowd the target's own measurements out of the
		// surrogate's training window.
		if len(usable) > MaxSamplesPerDonor {
			usable = usable[:MaxSamplesPerDonor]
		}
		for _, smp := range usable {
			ws.Features = append(ws.Features, sp.FeaturesAt(smp.Config))
			ws.GFLOPS = append(ws.GFLOPS, smp.GFLOPS/scale)
		}
	}
	if len(ws.Seeds) == 0 && len(ws.Features) == 0 {
		return nil
	}
	return ws
}

// MaxSamplesPerDonor bounds the surrogate rows one donor contributes to a
// warm start (its samples are stored best-first, so the bound keeps the
// strongest evidence).
const MaxSamplesPerDonor = 12

// WarmBudgetFrac is the default budget kept by a warm-started session:
// transferred seeds and surrogate priors let it reach the cold run's
// quality well under the full budget (ROADMAP item 2 targets ≥30% fewer
// measurements), so serving infrastructure spends 70% and banks the rest.
const WarmBudgetFrac = 0.7

// WarmDonors is how many nearest donor devices a warm start draws from
// (Decide's k for WarmStart).
const WarmDonors = 3

// ShrinkBudget scales a session budget for a warm start, rounding up and
// never below one measurement. Zero (unset) bounds stay unset.
func ShrinkBudget(b tuner.Budget, frac float64) tuner.Budget {
	if frac <= 0 || frac >= 1 {
		return b
	}
	if b.MaxMeasurements > 0 {
		b.MaxMeasurements = int(math.Ceil(float64(b.MaxMeasurements) * frac))
		if b.MaxMeasurements < 1 {
			b.MaxMeasurements = 1
		}
	}
	if b.MaxGPUSeconds > 0 {
		b.MaxGPUSeconds *= frac
	}
	return b
}

// EntryFromResult packages a finished tuning session as a cache entry.
// Returns ok=false when the session found nothing worth storing.
func EntryFromResult(fingerprint, device string, res *tuner.Result, sp *space.Space) (Entry, bool) {
	if res == nil || res.BestIndex < 0 || res.BestGFLOPS <= 0 {
		return Entry{}, false
	}
	e := Entry{
		Fingerprint:  fingerprint,
		Device:       device,
		TaskName:     res.TaskName,
		BestConfig:   res.BestIndex,
		Schedule:     sp.Describe(sp.FromIndex(res.BestIndex)),
		GFLOPS:       res.BestGFLOPS,
		TimeMS:       res.BestTimeMS,
		Measurements: res.Measurements,
	}
	for _, m := range res.TopMeasured {
		e.Samples = append(e.Samples, Sample{Config: m.Index, GFLOPS: m.GFLOPS})
	}
	return e, true
}
