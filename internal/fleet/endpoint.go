package fleet

import (
	"fmt"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/measure"
)

// Endpoint describes one measurement service the scheduler can lease —
// a remote board, an RPC daemon, or an in-process simulator. Dial is
// called lazily, at most once per hosted GPU, and the connection is kept
// for the lifetime of the run.
type Endpoint struct {
	// Name identifies the endpoint in stats, traces, and errors.
	Name string
	// Hosts lists the GPU targets this endpoint can measure. Empty means
	// it hosts every target.
	Hosts []string
	// Dial builds the measurer for one hosted GPU.
	Dial func(gpu string) (measure.Measurer, error)
}

// HostsGPU reports whether the endpoint can measure the named target.
func (e *Endpoint) HostsGPU(gpu string) bool {
	if len(e.Hosts) == 0 {
		return true
	}
	for _, h := range e.Hosts {
		if h == gpu {
			return true
		}
	}
	return false
}

// slot is the scheduler's live state for one endpoint: the lazily-dialed
// reliable connections, a single-owner busy token (real boards serialize
// measurements), and the cost statistics that drive adaptive batching.
type slot struct {
	ep   Endpoint
	home int // shard index; -1 = unassigned, borrow-only

	mu      sync.Mutex
	busy    bool
	conns   map[string]*measure.Reliable
	served  int     // measurements completed
	fails   int     // failed leases (chunk attempts that errored)
	ewmaSec float64 // EWMA of observed wall seconds per measurement
}

func newSlot(ep Endpoint) *slot {
	return &slot{ep: ep, home: -1, conns: make(map[string]*measure.Reliable)}
}

// conn returns the reliable connection for one hosted GPU, dialing on
// first use. The Reliable wrapper gives every endpoint a circuit breaker
// the scheduler can consult via Ready.
func (s *slot) conn(gpu string, cfg measure.ReliableConfig) (*measure.Reliable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.conns[gpu]; ok {
		return r, nil
	}
	m, err := s.ep.Dial(gpu)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial %s for %s: %w", s.ep.Name, gpu, err)
	}
	r, err := measure.NewReliable(cfg, m)
	if err != nil {
		return nil, fmt.Errorf("fleet: wrap %s: %w", s.ep.Name, err)
	}
	s.conns[gpu] = r
	return r, nil
}

// ready reports whether the endpoint's breaker (if any connection exists)
// would admit work for gpu. An undialed endpoint is optimistically ready.
func (s *slot) ready(gpu string) bool {
	s.mu.Lock()
	r, ok := s.conns[gpu]
	s.mu.Unlock()
	if !ok {
		return true
	}
	return r.Ready()
}

// tryAcquire takes the busy token if free.
func (s *slot) tryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy {
		return false
	}
	s.busy = true
	return true
}

func (s *slot) release() {
	s.mu.Lock()
	s.busy = false
	s.mu.Unlock()
}

const ewmaAlpha = 0.3

// observe folds one completed chunk into the endpoint's cost estimate.
func (s *slot) observe(n int, wall time.Duration) {
	if n <= 0 {
		return
	}
	per := wall.Seconds() / float64(n)
	s.mu.Lock()
	s.served += n
	if s.ewmaSec == 0 {
		s.ewmaSec = per
	} else {
		s.ewmaSec = ewmaAlpha*per + (1-ewmaAlpha)*s.ewmaSec
	}
	s.mu.Unlock()
}

func (s *slot) observeFailure() {
	s.mu.Lock()
	s.fails++
	s.mu.Unlock()
}

// costStats returns (served measurements, EWMA seconds per measurement).
func (s *slot) costStats() (int, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.ewmaSec
}

// targetChunkSeconds is the wall time one leased chunk should cost; the
// adaptive chunk size is this over the endpoint's EWMA measurement cost.
const targetChunkSeconds = 0.02

// chunkSize adapts the batch slice leased to this endpoint so one chunk
// targets targetChunkSeconds of wall time: fast endpoints get big
// chunks (amortized dispatch), slow or degrading ones get small chunks
// (bounded straggler cost, finer-grained reassignment). Before any
// observation it falls back to an even split.
func (s *slot) chunkSize(sc *SchedulerConfig, remaining, endpoints int) int {
	_, ewma := s.costStats()
	var n int
	if ewma > 0 {
		n = int(targetChunkSeconds / ewma)
	} else if endpoints > 0 {
		n = remaining / endpoints
	}
	if n < 1 {
		n = 1
	}
	if n > sc.MaxChunk {
		n = sc.MaxChunk
	}
	if n > remaining {
		n = remaining
	}
	return n
}
