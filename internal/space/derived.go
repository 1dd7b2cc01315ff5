package space

import (
	"fmt"

	"github.com/neuralcompile/glimpse/internal/workload"
)

// Resources summarizes the hardware footprint of a configuration: the
// quantities CUDA launch validity and performance depend on. Both the GPU
// simulator and Glimpse's ensemble sampler consume this.
type Resources struct {
	ThreadsPerBlock  int
	VThreads         int
	Blocks           int64
	OutputsPerThread int // accumulator registers per physical thread
	SharedMemBytes   int
	RegsPerThread    int
	UnrollStep       int
	UnrollExplicit   bool
	ThreadX          int // innermost thread extent (memory coalescing)
	ReduceInner      int // innermost reduction extent (staging granularity)

	// ChannelBlocks is the grid extent along the output-channel axis
	// (blocks that re-read the same input tile); SpatialBlocks is the grid
	// extent along spatial/tile axes (blocks that re-read the weights).
	ChannelBlocks int64
	SpatialBlocks int64
	// BlockOutY / BlockOutX are the output-tile extents one block covers
	// (conv only), which set the input halo over-read.
	BlockOutY int
	BlockOutX int
}

// roleProduct multiplies the factors of a split knob whose parts carry role r.
func roleProduct(k *Knob, value []int, r Role) int {
	p := 1
	for i, role := range k.Roles {
		if role == r {
			p *= value[i]
		}
	}
	return p
}

// splitInfo is one split knob's value within a configuration.
type splitInfo struct {
	value []int
	knob  *Knob
}

// maxSplitKnobs bounds the split knobs of every template (direct conv2d
// has six); Derive keeps that many on the stack.
const maxSplitKnobs = 8

// Derive computes the resource footprint of cfg for the given task. The
// task must be the one the space was built from.
func Derive(t workload.Task, s *Space, cfg Config) (Resources, error) {
	if len(cfg) != len(s.Knobs) {
		return Resources{}, fmt.Errorf("space: config/knob count mismatch %d vs %d", len(cfg), len(s.Knobs))
	}
	var res Resources
	res.ThreadsPerBlock = 1
	res.VThreads = 1
	res.Blocks = 1
	res.OutputsPerThread = 1
	res.ThreadX = 1
	res.ReduceInner = 1

	// The split knobs' values, in knob order. The fixed backing array and
	// the closures below stay on the stack, so Derive allocates nothing
	// for a template's at most maxSplitKnobs splits.
	var buf [maxSplitKnobs]splitInfo
	splits := buf[:0]
	for i := range s.Knobs {
		k := &s.Knobs[i]
		switch k.Kind {
		case KindSplit:
			v := k.SplitValue(cfg[i])
			splits = append(splits, splitInfo{v, k})
			res.ThreadsPerBlock *= roleProduct(k, v, RoleThread)
			res.VThreads *= roleProduct(k, v, RoleVThread)
			res.Blocks *= int64(roleProduct(k, v, RoleBlock))
			res.OutputsPerThread *= roleProduct(k, v, RoleInner) * roleProduct(k, v, RoleVThread)
		case KindCategorical:
			switch k.Name {
			case KnobUnroll:
				res.UnrollStep = k.CategoricalValue(cfg[i])
			case KnobUnrollE:
				res.UnrollExplicit = k.CategoricalValue(cfg[i]) == 1
			}
		}
	}

	res.ChannelBlocks = 1
	res.SpatialBlocks = 1
	res.BlockOutY = 1
	res.BlockOutX = 1

	find := func(name string) *splitInfo {
		for i := range splits {
			if splits[i].knob.Name == name {
				return &splits[i]
			}
		}
		return nil
	}
	get := func(name string) []int {
		if sp := find(name); sp != nil {
			return sp.value
		}
		return nil
	}
	blockPart := func(name string) int {
		if sp := find(name); sp != nil {
			return roleProduct(sp.knob, sp.value, RoleBlock)
		}
		return 1
	}
	blockExtent := func(name string) int {
		if sp := find(name); sp != nil {
			return roleProduct(sp.knob, sp.value, RoleVThread) *
				roleProduct(sp.knob, sp.value, RoleThread) *
				roleProduct(sp.knob, sp.value, RoleInner)
		}
		return 1
	}

	const bytesPerFloat = 4
	switch s.Template {
	case "conv2d":
		c := t.Conv
		fb := blockExtent(KnobTileF)
		yb := blockExtent(KnobTileY)
		xb := blockExtent(KnobTileX)
		rc := get(KnobTileRC)
		ry := get(KnobTileRY)
		rx := get(KnobTileRX)
		rci, ryi, rxi := rc[1], ry[1], rx[1]
		res.ReduceInner = rci
		if tx := get(KnobTileX); tx != nil {
			res.ThreadX = tx[2] // thread part of the innermost spatial axis
		}
		inTile := ((yb-1)*c.Stride + c.Kernel) * ((xb-1)*c.Stride + c.Kernel) * rci
		filtTile := fb * rci * ryi * rxi
		res.SharedMemBytes = bytesPerFloat * (inTile + filtTile)
		res.RegsPerThread = 16 + (5*res.OutputsPerThread)/4 + rci/8
		res.ChannelBlocks = int64(blockPart(KnobTileF))
		res.SpatialBlocks = int64(blockPart(KnobTileY)) * int64(blockPart(KnobTileX))
		res.BlockOutY, res.BlockOutX = yb, xb

	case "winograd_conv2d":
		pb := blockExtent(KnobTileP)
		cb := blockExtent(KnobTileCO)
		ci := get(KnobTileCI)
		cii := ci[1]
		res.ReduceInner = cii
		if tp := get(KnobTileP); tp != nil {
			res.ThreadX = tp[2]
		}
		// Transformed-domain staging: input tiles and kernel tiles per
		// reduction step (the 4×4 transform dimension is batched outside
		// the block, matching TVM's winograd schedule).
		res.SharedMemBytes = bytesPerFloat * (pb*cii + cb*cii)
		res.RegsPerThread = 18 + (5*res.OutputsPerThread)/4 + cii/8
		res.ChannelBlocks = int64(blockPart(KnobTileCO))
		res.SpatialBlocks = int64(blockPart(KnobTileP))
		res.BlockOutY, res.BlockOutX = pb, 1

	case "dense":
		ty := get(KnobTileY)
		tk := get(KnobTileK)
		ki := tk[1]
		res.ReduceInner = ki
		res.ThreadX = roleProduct(&s.Knobs[0], ty, RoleThread)
		// Staged input chunk shared across the block plus per-thread rows.
		res.SharedMemBytes = bytesPerFloat * ki * (1 + res.ThreadsPerBlock/8)
		res.RegsPerThread = 12 + (5*res.OutputsPerThread)/4 + ki/16
		res.ChannelBlocks = int64(blockPart(KnobTileY))
		res.SpatialBlocks = 1

	default:
		return Resources{}, fmt.Errorf("space: unknown template %q", s.Template)
	}
	return res, nil
}
