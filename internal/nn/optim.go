package nn

import (
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// Optimizer updates network parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []*mat.Matrix
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one SGD update to every parameter.
func (o *SGD) Step(params []Param) {
	if o.velocity == nil {
		o.velocity = make([]*mat.Matrix, len(params))
		for i, p := range params {
			r, c := p.Value.Dims()
			o.velocity[i] = mat.New(r, c)
		}
	}
	for i, p := range params {
		v := o.velocity[i]
		v.ScaleInPlace(o.Momentum)
		v.AddScaledInPlace(-o.LR, p.Grad)
		p.Value.AddInPlace(v)
	}
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  []*mat.Matrix
}

// NewAdam returns an Adam optimizer with standard defaults for the betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter.
func (o *Adam) Step(params []Param) {
	if o.m == nil {
		o.m = make([]*mat.Matrix, len(params))
		o.v = make([]*mat.Matrix, len(params))
		for i, p := range params {
			r, c := p.Value.Dims()
			o.m[i] = mat.New(r, c)
			o.v[i] = mat.New(r, c)
		}
	}
	o.t++
	c := adamCoef{
		b1: o.Beta1, c1: 1 - o.Beta1,
		b2: o.Beta2, c2: 1 - o.Beta2,
		bc1: 1 - math.Pow(o.Beta1, float64(o.t)),
		bc2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr:  o.LR, eps: o.Eps,
	}
	for i, p := range params {
		adamStep(p.Value.RawData(), p.Grad.RawData(), o.m[i].RawData(), o.v[i].RawData(), &c)
	}
}

// adamCoef holds one Adam step's scalars: the betas and their
// complements, the bias corrections, the learning rate and ε. The
// assembly kernel reads the fields in this order.
type adamCoef struct {
	b1, c1, b2, c2, bc1, bc2, lr, eps float64
}

// adamGo updates one parameter's values, first moments and second
// moments from its gradient, all of length len(val). It is the
// definition of adamStep and its fallback (simd.go).
func adamGo(val, grad, m, v []float64, c *adamCoef) {
	for j, g := range grad {
		mNew := c.b1*m[j] + c.c1*g
		vNew := c.b2*v[j] + c.c2*g*g
		m[j], v[j] = mNew, vNew
		update := c.lr * (mNew / c.bc1) / (math.Sqrt(vNew/c.bc2) + c.eps)
		val[j] -= update
	}
}

// ClipGradients scales all gradients so their global L2 norm is at most max.
func ClipGradients(params []Param, max float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.RawData() {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
}
