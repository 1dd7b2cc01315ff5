package space

import (
	"fmt"
	"math"
)

// Role describes the scheduling meaning of one part of a split knob; the
// simulator and the hardware-aware sampler compute resource usage from
// these roles rather than from knob names.
type Role int

const (
	// RoleBlock binds the part to blockIdx (grid dimension).
	RoleBlock Role = iota
	// RoleVThread binds the part to a virtual thread (TVM vthread).
	RoleVThread
	// RoleThread binds the part to threadIdx.
	RoleThread
	// RoleInner is an innermost serial loop within a thread.
	RoleInner
	// RoleReduceOuter is the outer part of a reduction split (shared-memory
	// staging granularity).
	RoleReduceOuter
	// RoleReduceInner is the inner part of a reduction split.
	RoleReduceInner
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleBlock:
		return "block"
	case RoleVThread:
		return "vthread"
	case RoleThread:
		return "thread"
	case RoleInner:
		return "inner"
	case RoleReduceOuter:
		return "reduce_outer"
	case RoleReduceInner:
		return "reduce_inner"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// KnobKind discriminates split from categorical knobs.
type KnobKind int

const (
	// KindSplit is an ordered factorization of an axis length.
	KindSplit KnobKind = iota
	// KindCategorical is a small fixed option list.
	KindCategorical
)

// Knob is one tunable dimension of a configuration space.
type Knob struct {
	Name string
	Kind KnobKind

	// Split knob fields.
	Axis   int    // axis length being factorized
	Parts  int    // number of ordered factors
	Roles  []Role // role of each part, len == Parts
	table  *splitTable
	tuples int // factor tuples in table, the knob's size

	// Categorical knob fields.
	Options        []int
	optionFeatures []float64 // log2(1+option), built at construction
}

// NewSplitKnob builds a split knob over an axis of the given length.
func NewSplitKnob(name string, axis int, roles []Role) Knob {
	if axis <= 0 {
		panic(fmt.Sprintf("space: split knob %q with axis %d", name, axis))
	}
	if len(roles) == 0 {
		panic(fmt.Sprintf("space: split knob %q without roles", name))
	}
	t := cachedSplitTable(axis, len(roles))
	return Knob{
		Name:   name,
		Kind:   KindSplit,
		Axis:   axis,
		Parts:  len(roles),
		Roles:  roles,
		table:  t,
		tuples: len(t.factors) / len(roles),
	}
}

// NewCategoricalKnob builds a categorical knob over fixed integer options.
func NewCategoricalKnob(name string, options []int) Knob {
	if len(options) == 0 {
		panic(fmt.Sprintf("space: categorical knob %q without options", name))
	}
	features := make([]float64, len(options))
	for i, o := range options {
		features[i] = math.Log2(1 + float64(o))
	}
	return Knob{Name: name, Kind: KindCategorical, Options: options, optionFeatures: features}
}

// Size returns the number of distinct values the knob can take.
func (k *Knob) Size() int {
	if k.Kind == KindSplit {
		return k.tuples
	}
	return len(k.Options)
}

// SplitValue returns the factor tuple for local index i of a split knob.
func (k *Knob) SplitValue(i int) []int {
	if k.Kind != KindSplit {
		panic(fmt.Sprintf("space: SplitValue on categorical knob %q", k.Name))
	}
	p := k.Parts
	return k.table.factors[i*p : (i+1)*p : (i+1)*p]
}

// CategoricalValue returns the option for local index i.
func (k *Knob) CategoricalValue(i int) int {
	if k.Kind != KindCategorical {
		panic(fmt.Sprintf("space: CategoricalValue on split knob %q", k.Name))
	}
	return k.Options[i]
}

// FeatureLen is the number of feature slots the knob contributes: one
// log2-factor per split part, or one normalized slot per categorical knob.
func (k *Knob) FeatureLen() int {
	if k.Kind == KindSplit {
		return k.Parts
	}
	return 1
}

// AppendFeatures appends the knob's features for local index i to dst.
// Split parts are encoded as log2(factor); categorical values as
// log2(1+option) to keep magnitudes comparable. The logarithms are
// computed when the knob is built, so this only looks them up.
func (k *Knob) AppendFeatures(dst []float64, i int) []float64 {
	if k.Kind == KindSplit {
		p := k.Parts
		for _, d := range k.table.div[i*p : (i+1)*p] {
			dst = append(dst, k.table.log2Div[d])
		}
		return dst
	}
	return append(dst, k.optionFeatures[i])
}
