package gp

import "github.com/neuralcompile/glimpse/internal/mat"

// Lanes is the most queries one PredictLanes call evaluates together.
const Lanes = 4

// Scratch is the caller-owned workspace of PredictLanes: per lane, the
// kernel vector and the two triangular-solve vectors. The zero value is
// ready to use and grows to the regressor's size on first use, so one
// Scratch serves any number of calls and regressors. A Scratch must not be
// shared between goroutines.
type Scratch struct {
	ks, y, v [Lanes][]float64
}

// size makes the first lanes vectors of s hold n values.
func (s *Scratch) size(n, lanes int) {
	for l := 0; l < lanes; l++ {
		if cap(s.ks[l]) < n {
			s.ks[l], s.y[l], s.v[l] = make([]float64, n), make([]float64, n), make([]float64, n)
		}
		s.ks[l], s.y[l], s.v[l] = s.ks[l][:n], s.y[l][:n], s.v[l][:n]
	}
}

// PredictLanes writes the posterior mean and variance at each of the
// 1..Lanes query points q[l] into mean[l] and variance[l].
//
// Each lane does exactly the arithmetic of a lone posterior, term for term:
// kernel vector k, mean ȳ + k·α, forward solve L·y = k, backward solve
// Lᵀ·v = y, variance k(q,q) − k·v. What the lanes share is the pass over
// L: each triangular solve is a serial chain of dependent subtractions,
// and stepping four independent chains through one row of L at a time
// lets the CPU overlap them. The backward pass reads a row-major Lᵀ
// built once per fit instead of striding L by column.
//
// It allocates nothing once s has grown to the regressor's size.
func (r *Regressor) PredictLanes(q [][]float64, mean, variance []float64, s *Scratch) {
	m := len(q)
	if m < 1 || m > Lanes {
		panic("gp: PredictLanes takes 1 to Lanes queries")
	}
	if !r.Fitted() {
		for l, ql := range q {
			mean[l], variance[l] = r.yMean, r.Kernel.Eval(ql, ql)
		}
		return
	}
	n := len(r.x)
	if m == 1 {
		s.size(n, 1)
	} else {
		s.size(n, Lanes)
	}
	for l, ql := range q {
		ks := s.ks[l]
		for i, xi := range r.x {
			ks[i] = r.Kernel.Eval(ql, xi)
		}
		mean[l] = r.yMean + mat.Dot(ks, r.alpha)
	}
	ld, ltd := r.chol.RawData(), r.cholT.RawData()
	if m == 1 {
		forward1(ld, n, s.ks[0], s.y[0])
		backward1(ltd, n, s.y[0], s.v[0])
	} else {
		// Idle lanes solve lane 0's vector again into their own buffers;
		// their results are never read.
		b := s.ks
		for l := m; l < Lanes; l++ {
			b[l] = s.ks[0]
		}
		forward4(ld, n, &b, &s.y)
		backward4(ltd, n, &s.y, &s.v)
	}
	for l, ql := range q {
		v := r.Kernel.Eval(ql, ql) - mat.Dot(s.ks[l], s.v[l])
		if v < 0 {
			v = 0
		}
		variance[l] = v
	}
}

// forward1 solves L·y = b by forward substitution; ld is L row-major.
func forward1(ld []float64, n int, b, y []float64) {
	for i := 0; i < n; i++ {
		row := ld[i*n : i*n+i+1]
		yi := y[:i]
		s := b[i]
		for k, lik := range row[:i] {
			s -= lik * yi[k]
		}
		y[i] = s / row[i]
	}
}

// backward1 solves Lᵀ·x = y by backward substitution; ltd is Lᵀ row-major.
func backward1(ltd []float64, n int, y, x []float64) {
	for i := n - 1; i >= 0; i-- {
		row := ltd[i*n : (i+1)*n]
		xi := x[i+1 : n]
		s := y[i]
		for k, ltik := range row[i+1:] {
			s -= ltik * xi[k]
		}
		x[i] = s / row[i]
	}
}

// forward4 is forward1 on four right-hand sides at once, each lane
// keeping forward1's term order.
func forward4(ld []float64, n int, b, y *[Lanes][]float64) {
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	y0, y1, y2, y3 := y[0][:n], y[1][:n], y[2][:n], y[3][:n]
	for i := 0; i < n; i++ {
		row := ld[i*n : i*n+i+1]
		p0, p1, p2, p3 := y0[:i], y1[:i], y2[:i], y3[:i]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k, lik := range row[:i] {
			s0 -= lik * p0[k]
			s1 -= lik * p1[k]
			s2 -= lik * p2[k]
			s3 -= lik * p3[k]
		}
		d := row[i]
		y0[i], y1[i], y2[i], y3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// backward4 is backward1 on four right-hand sides at once, each lane
// keeping backward1's term order.
func backward4(ltd []float64, n int, y, x *[Lanes][]float64) {
	y0, y1, y2, y3 := y[0][:n], y[1][:n], y[2][:n], y[3][:n]
	x0, x1, x2, x3 := x[0][:n], x[1][:n], x[2][:n], x[3][:n]
	for i := n - 1; i >= 0; i-- {
		row := ltd[i*n : (i+1)*n]
		p0, p1, p2, p3 := x0[i+1:], x1[i+1:], x2[i+1:], x3[i+1:]
		s0, s1, s2, s3 := y0[i], y1[i], y2[i], y3[i]
		for k, ltik := range row[i+1:] {
			s0 -= ltik * p0[k]
			s1 -= ltik * p1[k]
			s2 -= ltik * p2[k]
			s3 -= ltik * p3[k]
		}
		d := row[i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}
