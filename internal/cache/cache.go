// Package cache is the persistent tuned-config store behind warm-started
// tuning: every completed session's best configuration (plus its top
// measured samples) is appended to a JSONL log keyed by a deterministic
// workload fingerprint and the target device's Blueprint embedding.
// Production tuning traffic is dominated by repeated and near-repeated
// queries — the same conv shape on the same or an adjacent GPU SKU — so
//
//   - an exact hit (same fingerprint, same device) serves the stored best
//     configuration in microseconds with zero hardware measurements, and
//   - a miss falls back to a nearest-neighbor scan in Blueprint/PCA space:
//     the K closest donor devices that tuned the same workload seed the
//     new session (donor best-configs join the §3.1 initial batch, donor
//     samples pre-train the surrogate) under a shrunken budget — the
//     paper's Fig. 5 leave-one-out transfer setting turned into
//     serving infrastructure.
//
// The store is one of the durable JSONL logs that open through
// tlog.OpenAppend: one JSON line per entry, kill-safe reopen that repairs
// a torn final line, an fsync after every Put (like the fleet checkpoint
// and the glimpsed job journal), and concurrent-writer safety for
// parallel fleet sessions.
package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
)

// Sample is one measured (configuration, performance) pair a donor run
// contributes to a warm-started surrogate.
type Sample struct {
	Config int64   `json:"config"`
	GFLOPS float64 `json:"gflops"`
}

// Entry is one stored tuned-config record: the best configuration a
// tuning session found for (workload fingerprint, device), with enough
// context to serve it (schedule, performance) and to warm-start a
// neighbor (embedding, top samples).
type Entry struct {
	Seq         int    `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	Device      string `json:"device"`
	Model       string `json:"model,omitempty"`
	TaskIndex   int    `json:"task_index,omitempty"`
	TaskName    string `json:"task_name,omitempty"`
	// Embedding is the device's canonical Blueprint vector (EmbedDevice)
	// at store time; nearest-neighbor scans measure distance against it.
	Embedding    []float64 `json:"embedding"`
	BestConfig   int64     `json:"best_config"`
	Schedule     string    `json:"schedule,omitempty"`
	GFLOPS       float64   `json:"gflops"`
	TimeMS       float64   `json:"time_ms,omitempty"`
	Measurements int       `json:"measurements,omitempty"`
	// Samples are the session's top measured configs (best-first), the
	// corpus a warm-started neighbor pre-trains its surrogate on.
	Samples []Sample `json:"samples,omitempty"`
}

func (e *Entry) validate() error {
	switch {
	case e.Fingerprint == "":
		return fmt.Errorf("cache: entry without fingerprint")
	case e.Device == "":
		return fmt.Errorf("cache: entry without device")
	case e.BestConfig < 0:
		return fmt.Errorf("cache: entry %s/%s with negative best config", e.Fingerprint, e.Device)
	case e.GFLOPS < 0 || math.IsNaN(e.GFLOPS) || math.IsInf(e.GFLOPS, 0):
		return fmt.Errorf("cache: entry %s/%s with invalid GFLOPS %v", e.Fingerprint, e.Device, e.GFLOPS)
	}
	for _, s := range e.Samples {
		if s.Config < 0 || s.GFLOPS < 0 || math.IsNaN(s.GFLOPS) {
			return fmt.Errorf("cache: entry %s/%s with invalid sample %+v", e.Fingerprint, e.Device, s)
		}
	}
	return nil
}

// Stats counts what the cache did over its lifetime in this process.
type Stats struct {
	Hits       int // exact hits served with zero measurements
	Misses     int // lookups that found no exact entry
	WarmStarts int // misses that produced at least one donor
	Puts       int // entries appended (improvements only)
	PutSkips   int // puts dropped (readonly store, or no improvement)
}

// Store is a persistent tuned-config cache over one JSONL file. All
// methods are safe for concurrent use; every Put is fsync'd.
type Store struct {
	mu       sync.Mutex
	f        *os.File // nil for a readonly store
	readonly bool
	seq      int
	entries  map[string]Entry // best per (fingerprint, device)
	stats    Stats
	reg      *telemetry.Registry
}

func storeKey(fingerprint, device string) string {
	return fingerprint + "\x00" + device
}

// Open opens (creating if absent) a tuned-config store. A tail torn by a
// killed writer is repaired by tlog.OpenAppend. Any other malformed or
// invalid entry is a hard error — a corrupt cache must not silently
// serve wrong configs.
func Open(path string) (*Store, error) {
	s := NewMemory()
	f, err := tlog.OpenAppend(path, s.replay)
	if err != nil {
		return nil, fmt.Errorf("cache: %s: %w", path, err)
	}
	s.f = f
	return s, nil
}

// NewMemory returns a store with no backing file: Get/Nearest/Put all
// work, nothing persists. Used by experiment harnesses and tests that
// need cache semantics without touching disk.
func NewMemory() *Store {
	return &Store{entries: map[string]Entry{}}
}

// OpenReadOnly opens an existing store for serving only: lookups and
// warm starts work, Put never writes. The file is read once and released,
// so a readonly consumer cannot hold or corrupt the writer's file.
func OpenReadOnly(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := NewMemory()
	if err := tlog.ReadJSONLines(bytes.NewReader(data), s.replay); err != nil {
		return nil, fmt.Errorf("cache: %s: %w", path, err)
	}
	s.readonly = true
	return s, nil
}

// replay loads one stored JSONL line into the in-memory index, keeping
// the best entry per (fingerprint, device).
func (s *Store) replay(line []byte) error {
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return err
	}
	if err := e.validate(); err != nil {
		return err
	}
	if e.Seq > s.seq {
		s.seq = e.Seq
	}
	// Only a strictly better entry replaces the incumbent, so replay
	// order cannot flap the result.
	key := storeKey(e.Fingerprint, e.Device)
	if old, ok := s.entries[key]; !ok || e.GFLOPS > old.GFLOPS {
		s.entries[key] = e
	}
	return nil
}

// SetMetrics mirrors the store's hit/miss/put counters into a telemetry
// registry (counters cache_hit, cache_miss, cache_warm_start, cache_put).
func (s *Store) SetMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// count bumps an internal stat and its registry mirror. Callers hold mu.
func (s *Store) count(name string, field *int) {
	*field++
	if s.reg != nil {
		s.reg.Counter(name).Inc()
	}
}

// Get returns the stored best entry for an exact (fingerprint, device)
// key. The stored embedding must still match the device's current
// canonical Blueprint vector: if the spec behind the name changed (a
// re-registered custom GPU, a corrected datasheet), the stored config was
// tuned for different hardware and the lookup is treated as a miss.
func (s *Store) Get(fingerprint, device string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[storeKey(fingerprint, device)]
	if ok {
		if emb, err := EmbedDevice(device); err == nil && !embeddingClose(emb, e.Embedding) {
			ok = false
		}
	}
	if ok {
		s.count("cache_hit", &s.stats.Hits)
	} else {
		s.count("cache_miss", &s.stats.Misses)
	}
	return e, ok
}

// embeddingClose reports whether two embeddings agree to float-roundtrip
// tolerance (entries persist through JSON).
func embeddingClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

// Nearest returns up to k donor entries for the fingerprint, ordered by
// ascending Euclidean distance between the query device's canonical
// Blueprint embedding and each stored entry's (ties broken by device
// name, so the scan is deterministic regardless of map order). The query
// device itself is excluded — exact serving is Get's job.
func (s *Store) Nearest(fingerprint, device string, k int) []Entry {
	if k <= 0 {
		return nil
	}
	query, err := EmbedDevice(device)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type scored struct {
		e    Entry
		dist float64
	}
	var cands []scored
	for _, e := range s.entries {
		if e.Fingerprint != fingerprint || e.Device == device || len(e.Embedding) != len(query) {
			continue
		}
		d := 0.0
		for i := range query {
			diff := query[i] - e.Embedding[i]
			d += diff * diff
		}
		cands = append(cands, scored{e: e, dist: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist { //glint:ignore floateq -- total-order tiebreak for sorting, not a tolerance check
			return cands[i].dist < cands[j].dist
		}
		return cands[i].e.Device < cands[j].e.Device
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Entry, len(cands))
	for i, c := range cands {
		out[i] = c.e
	}
	return out
}

// Put appends an entry if it improves on the stored best for its key.
// On a readonly store Put is a no-op (stored=false, no error, no write).
// The entry's Seq is assigned by the store; its Embedding is filled from
// the device's canonical Blueprint vector when unset.
func (s *Store) Put(e Entry) (stored bool, err error) {
	if err := e.validate(); err != nil {
		return false, err
	}
	if len(e.Embedding) == 0 {
		emb, err := EmbedDevice(e.Device)
		if err != nil {
			return false, fmt.Errorf("cache: put %s: %w", e.Device, err)
		}
		e.Embedding = emb
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readonly {
		s.count("cache_put_skip", &s.stats.PutSkips)
		return false, nil
	}
	key := storeKey(e.Fingerprint, e.Device)
	if old, ok := s.entries[key]; ok && old.GFLOPS >= e.GFLOPS {
		s.count("cache_put_skip", &s.stats.PutSkips)
		return false, nil
	}
	s.seq++
	e.Seq = s.seq
	if s.f != nil {
		if err := telemetry.AppendJSONLine(s.f, e); err != nil {
			return false, err
		}
		if err := s.f.Sync(); err != nil {
			return false, err
		}
	}
	s.entries[key] = e
	s.count("cache_put", &s.stats.Puts)
	return true, nil
}

// Stats returns a snapshot of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len reports how many (fingerprint, device) bests the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// ReadOnly reports whether the store was opened with OpenReadOnly.
func (s *Store) ReadOnly() bool { return s.readonly }

// Close releases the underlying file (no-op for readonly stores).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}
