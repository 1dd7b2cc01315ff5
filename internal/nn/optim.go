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
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		val, grad := p.Value.RawData(), p.Grad.RawData()
		m, v := o.m[i].RawData()[:len(val)], o.v[i].RawData()[:len(val)]
		grad = grad[:len(val)]
		for j, g := range grad {
			mNew := o.Beta1*m[j] + (1-o.Beta1)*g
			vNew := o.Beta2*v[j] + (1-o.Beta2)*g*g
			m[j], v[j] = mNew, vNew
			update := o.LR * (mNew / bc1) / (math.Sqrt(vNew/bc2) + o.Eps)
			val[j] -= update
		}
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
