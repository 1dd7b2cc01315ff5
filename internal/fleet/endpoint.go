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
// measurements), the served count that orders leases, and the cost
// estimate that sets the straggler threshold.
type slot struct {
	ep   Endpoint
	home int // shard index; -1 = unassigned, borrow-only

	mu      sync.Mutex
	busy    bool
	conns   map[string]*measure.Reliable
	served  int     // measurements completed
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

// leasable reads the endpoint's served count and reports whether it is
// idle and its breaker for gpu (if dialed yet) would admit work. An
// undialed endpoint is optimistically ready.
func (s *slot) leasable(gpu string) (int, bool) {
	s.mu.Lock()
	if s.busy {
		s.mu.Unlock()
		return 0, false
	}
	served, r := s.served, s.conns[gpu]
	s.mu.Unlock()
	return served, r == nil || r.Ready()
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

// ewma returns the EWMA seconds per measurement (0 before the first
// observation).
func (s *slot) ewma() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ewmaSec
}
