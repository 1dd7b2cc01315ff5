package gpusim

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

const bytesPerFloat = 4

// Measure simulates compiling and running one configuration of a task on
// the device, returning throughput and the measurement's wall-clock cost.
func (d *Device) Measure(task workload.Task, sp *space.Space, cfg space.Config) Result {
	idx := sp.ToIndex(cfg)
	res, err := space.Derive(task, sp, cfg)
	if err != nil {
		return Result{Valid: false, FailReason: err.Error(), CostSec: 0.1}
	}
	if ok, reason := d.CheckValid(res); !ok {
		// Invalid configurations still burn tuner time: the compile or the
		// launch fails after a second or so (§4.3's wasted GPU time).
		return Result{
			Valid:      false,
			FailReason: reason,
			CostSec:    1.2 * d.noise(task.Name(), "!cost", idx),
		}
	}

	timeSec := d.kernelTime(task, sp, res)
	timeSec *= d.noise(task.Name(), "", idx)

	gflops := float64(task.FLOPs()) / timeSec / 1e9
	// Measurement wall-clock: compile + transfer + repeated timed runs.
	cost := (2.2 + math.Min(1.5, timeSec*1e3*0.3)) * d.noise(task.Name(), "!cost", idx)
	return Result{Valid: true, TimeMS: timeSec * 1e3, GFLOPS: gflops, CostSec: cost}
}

// MeasureIndex is Measure on a flat configuration index.
func (d *Device) MeasureIndex(task workload.Task, sp *space.Space, idx int64) Result {
	return d.Measure(task, sp, sp.FromIndex(idx))
}

// kernelTime is the deterministic analytical execution-time model.
func (d *Device) kernelTime(task workload.Task, sp *space.Space, res space.Resources) float64 {
	spec, arch := d.Spec, d.arch

	// ----- occupancy ------------------------------------------------------
	regs := res.RegsPerThread
	if regs > maxRegsPerThread {
		regs = maxRegsPerThread // compiler caps and spills
	}
	blocksPerSM := spec.MaxThreadsPerSM / res.ThreadsPerBlock
	if byRegs := spec.RegsPerSM / (regs * res.ThreadsPerBlock); byRegs < blocksPerSM {
		blocksPerSM = byRegs
	}
	if bySmem := spec.SharedMemPerSMKB * 1024 / res.SharedMemBytes; bySmem < blocksPerSM {
		blocksPerSM = bySmem
	}
	if blocksPerSM > arch.maxBlocksPerSM {
		blocksPerSM = arch.maxBlocksPerSM
	}
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	occ := float64(blocksPerSM*res.ThreadsPerBlock) / float64(spec.MaxThreadsPerSM)
	if occ > 1 {
		occ = 1
	}
	// Generations with longer issue latency need more occupancy to hide it.
	occAdj := occ * 4 / arch.issueLatency
	occEff := math.Min(1, occAdj/(occAdj+0.25)*1.25)

	// ----- per-thread efficiency -----------------------------------------
	warps := (res.ThreadsPerBlock + spec.WarpSize - 1) / spec.WarpSize
	warpEff := float64(res.ThreadsPerBlock) / float64(warps*spec.WarpSize)

	ilp := math.Min(float64(res.OutputsPerThread), 16)
	ilpEff := 1 - 0.5/(1+ilp/arch.issueLatency)

	regPenalty := 1.0
	if res.RegsPerThread > 128 {
		regPenalty = math.Exp(-float64(res.RegsPerThread-128) / 80)
	}

	unrollEff := 1.0
	reduceWork := float64(res.ReduceInner*8 + 1)
	if res.UnrollStep > 0 {
		unrollEff += arch.unrollGain * math.Min(1, float64(res.UnrollStep)/reduceWork)
	}
	if res.UnrollExplicit {
		if res.OutputsPerThread <= 32 {
			unrollEff += 0.02
		} else {
			unrollEff -= 0.03 // code bloat and instruction-cache misses
		}
	}

	bankEff := 1.0
	if res.ThreadX > 1 && res.ThreadX%2 == 1 {
		bankEff = 0.97 // odd strides skew shared-memory banks slightly
	}

	computeEff := occEff * warpEff * ilpEff * regPenalty * unrollEff * bankEff
	if computeEff < 0.01 {
		computeEff = 0.01
	}

	effFLOPs := float64(task.FLOPs())
	if sp.Template == "winograd_conv2d" {
		// F(2×2, 3×3) cuts multiplies 2.25×; transforms claw some back.
		effFLOPs = effFLOPs / 2.25 * 1.30
	}
	computeSec := effFLOPs / (spec.PeakGFLOPS * 1e9 * computeEff)

	// ----- memory traffic -------------------------------------------------
	trafficBytes := d.trafficBytes(task, sp, res)
	coalesce := math.Min(1, math.Max(0.25, float64(res.ThreadX)/16))
	memSec := trafficBytes / (spec.MemBWGBs * 1e9 * arch.memEffBase * coalesce)

	// ----- parallel coverage (wave quantization) --------------------------
	totalSlots := int64(spec.SMCount) * int64(blocksPerSM)
	waves := (res.Blocks + totalSlots - 1) / totalSlots
	parallelEff := float64(res.Blocks) / float64(waves*totalSlots)
	if parallelEff < 0.02 {
		parallelEff = 0.02
	}
	// Compute throughput scales with the SMs actually occupied; DRAM
	// bandwidth saturates once enough blocks are in flight to feed the
	// memory channels (≈2 blocks per 32-bit channel) — an absolute count,
	// independent of how many SMs happen to be idle.
	activeBlocks := res.Blocks
	if activeBlocks > totalSlots {
		activeBlocks = totalSlots
	}
	blocksToSaturate := float64(spec.MemBusWidthBits) / 32 * 2
	memUtil := math.Min(1, float64(activeBlocks)/blocksToSaturate)

	t := math.Max(computeSec/parallelEff, memSec/memUtil) + 3e-6 // launch overhead
	return t
}

// trafficBytes estimates DRAM traffic after L2 filtering.
func (d *Device) trafficBytes(task workload.Task, sp *space.Space, res space.Resources) float64 {
	arch := d.arch
	l2Bytes := float64(d.Spec.L2CacheKB) * 1024

	// missFrac models how much of a re-read stream actually reaches DRAM:
	// streams that fit in L2 are mostly served on-chip.
	missFrac := func(workingSet float64) float64 {
		f := workingSet / l2Bytes
		if f > 1 {
			f = 1
		}
		if f < 0.02 {
			f = 0.02
		}
		return f * (1 - arch.l2Reuse)
	}

	switch sp.Template {
	case "conv2d", "winograd_conv2d":
		c := task.Conv
		inBytes := float64(c.H) * float64(c.W) * float64(c.InC) * bytesPerFloat
		wBytes := float64(c.OutC) * float64(c.InC) * float64(c.Kernel*c.Kernel) * bytesPerFloat
		outBytes := float64(c.OutH()) * float64(c.OutW()) * float64(c.OutC) * bytesPerFloat

		if sp.Template == "winograd_conv2d" {
			// Transformed tiles inflate the tensors.
			inBytes *= 16.0 / 4.0
			wBytes *= 16.0 / 9.0
		}

		// Channel-axis blocks re-read the same input tiles; spatial blocks
		// re-read the weights.
		channelBlocks := float64(res.ChannelBlocks)
		spatialBlocks := float64(res.SpatialBlocks)
		halo := 1.0
		if sp.Template == "conv2d" {
			halo = haloFactor(task, res)
		}
		trafficIn := inBytes * halo * (1 + (channelBlocks-1)*missFrac(inBytes))
		trafficW := wBytes * (1 + (spatialBlocks-1)*missFrac(wBytes))
		return trafficIn + trafficW + outBytes

	case "dense":
		dn := task.Dense
		inBytes := float64(dn.In) * float64(dn.Batch) * bytesPerFloat
		wBytes := float64(dn.In) * float64(dn.Out) * bytesPerFloat
		outBytes := float64(dn.Out) * float64(dn.Batch) * bytesPerFloat
		// Weights are streamed once; the input vector is re-read per block.
		blocks := float64(res.Blocks)
		return wBytes + inBytes*(1+(blocks-1)*missFrac(inBytes)) + outBytes

	default:
		return 1
	}
}

// haloFactor is the input over-read caused by tile halos: each block loads
// ((ty-1)s+K)·((tx-1)s+K) input pixels to produce a ty×tx output tile.
func haloFactor(task workload.Task, res space.Resources) float64 {
	c := task.Conv
	ty, tx := float64(res.BlockOutY), float64(res.BlockOutX)
	s, k := float64(c.Stride), float64(c.Kernel)
	loaded := ((ty-1)*s + k) * ((tx-1)*s + k)
	covered := ty * s * tx * s
	return loaded / covered
}
