// Package gpusim is the stand-in for the paper's physical GPUs: an
// analytical performance model that maps (task, schedule configuration) to
// an execution time, a validity verdict, and a measurement wall-clock cost.
//
// The model is deliberately structured like the machines it imitates —
// occupancy from register/shared-memory/thread limits, a roofline of
// compute versus memory traffic, warp-granularity and wave-tail penalties,
// and per-generation microarchitecture coefficients — so that (i) the
// optimal configuration genuinely shifts between GPU generations (the
// premise of Fig. 1), (ii) roughly a tenth of the raw space is invalid on
// hardware grounds (§4.3), and (iii) datasheet features carry real signal
// about where good configurations live, which is the property Glimpse's
// Blueprint exploits.
package gpusim

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/space"
)

// Device simulates one GPU.
type Device struct {
	Spec hwspec.Spec
	// NoiseSigma is the lognormal measurement-noise scale (default 0.03).
	NoiseSigma float64
	arch       archParams
}

// archParams are per-generation microarchitecture coefficients that are
// NOT in the datasheet; they are what makes tuning hardware-specific.
type archParams struct {
	issueLatency   float64 // pipeline latency hidden by ILP (outputs/thread)
	memEffBase     float64 // achievable fraction of peak bandwidth
	l2Reuse        float64 // fraction of re-reads served by L2
	unrollGain     float64 // benefit of aggressive unrolling
	sharedMemBanks int     // bank-conflict granularity
	maxBlocksPerSM int
}

func archFor(gen string) archParams {
	switch gen {
	case "Pascal":
		return archParams{issueLatency: 6, memEffBase: 0.68, l2Reuse: 0.35, unrollGain: 0.10, sharedMemBanks: 32, maxBlocksPerSM: 32}
	case "Volta":
		return archParams{issueLatency: 4, memEffBase: 0.74, l2Reuse: 0.45, unrollGain: 0.08, sharedMemBanks: 32, maxBlocksPerSM: 32}
	case "Turing":
		return archParams{issueLatency: 4, memEffBase: 0.72, l2Reuse: 0.50, unrollGain: 0.08, sharedMemBanks: 32, maxBlocksPerSM: 16}
	case "Ampere":
		return archParams{issueLatency: 3, memEffBase: 0.78, l2Reuse: 0.60, unrollGain: 0.06, sharedMemBanks: 32, maxBlocksPerSM: 16}
	default:
		return archParams{issueLatency: 5, memEffBase: 0.70, l2Reuse: 0.40, unrollGain: 0.08, sharedMemBanks: 32, maxBlocksPerSM: 32}
	}
}

// NewDevice builds a simulated GPU from its datasheet spec.
func NewDevice(spec hwspec.Spec) *Device {
	return &Device{Spec: spec, NoiseSigma: 0.03, arch: archFor(spec.Generation)}
}

// Result is one simulated hardware measurement.
type Result struct {
	Valid      bool
	FailReason string
	TimeMS     float64 // kernel execution time (0 when invalid)
	GFLOPS     float64 // achieved throughput (0 when invalid)
	// CostSec is the wall-clock the measurement consumed on the tuning
	// host+device (compile, transfer, runs) — what "GPU hours" counts.
	CostSec float64
}

// Validity failure reasons (stable strings, used by tests and logs).
const (
	FailTooManyThreads = "threads_per_block_exceeded"
	FailSharedMem      = "shared_mem_exceeded"
	FailRegisters      = "registers_exceeded"
	FailVThreads       = "vthread_limit_exceeded"
	FailGridDim        = "grid_dim_exceeded"
)

// maxRegsPerThread is the CUDA architectural cap.
const maxRegsPerThread = 255

// maxVThreads mirrors TVM's verifier limit on virtual threading.
const maxVThreads = 64

// CheckValid applies the launch-validity rules to a configuration.
// It returns ok=false plus a stable reason string for the first rule hit.
func (d *Device) CheckValid(res space.Resources) (bool, string) {
	if res.ThreadsPerBlock > d.Spec.MaxThreadsPerBlock {
		return false, FailTooManyThreads
	}
	if res.SharedMemBytes > d.Spec.MaxSmemPerBlockKB*1024 {
		return false, FailSharedMem
	}
	// Per-thread register pressure beyond 255 spills to local memory (a
	// performance penalty, not a launch failure); only exhausting the SM
	// register file fails the launch.
	regs := res.RegsPerThread
	if regs > maxRegsPerThread {
		regs = maxRegsPerThread
	}
	if regs*res.ThreadsPerBlock > d.Spec.RegsPerSM {
		return false, FailRegisters
	}
	if res.VThreads > maxVThreads {
		return false, FailVThreads
	}
	if res.Blocks > (1<<31)-1 {
		return false, FailGridDim
	}
	return true, ""
}

// noise returns a deterministic lognormal factor keyed by device, task
// (its name followed by suffix), and configuration index, so the
// "hardware" is reproducible yet rugged.
func (d *Device) noise(taskName, suffix string, cfgIdx int64) float64 {
	u := d.noiseHash(taskName, suffix, cfgIdx)
	// Two uniforms from the hash → one standard normal (Box–Muller).
	u1 := float64(u>>11) / float64(1<<53)
	u2 := float64((u*0x9E3779B97F4A7C15)>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(d.NoiseSigma * z)
}

// noiseHash is the 64-bit FNV-1a hash of the device name, a zero byte,
// the task name, the suffix and the index's eight little-endian bytes,
// computed inline so that a measurement allocates nothing.
func (d *Device) noiseHash(taskName, suffix string, cfgIdx int64) uint64 {
	const prime64 = 1099511628211
	u := uint64(14695981039346656037) // FNV-1a offset basis
	for _, s := range [...]string{d.Spec.Name, "\x00", taskName, suffix} {
		for i := 0; i < len(s); i++ {
			u = (u ^ uint64(s[i])) * prime64
		}
	}
	for i := 0; i < 8; i++ {
		u = (u ^ uint64(byte(cfgIdx>>(8*i)))) * prime64
	}
	return u
}
