package gp

import "github.com/neuralcompile/glimpse/internal/mat"

// Lanes is the most queries one PredictLanes call evaluates together.
const Lanes = 4

// Scratch is the caller-owned workspace of PredictLanes: per lane, the
// kernel vector and the forward-solve vector. The zero value is ready to
// use and grows to the regressor's size on first use, so one Scratch
// serves any number of calls and regressors. A Scratch must not be shared
// between goroutines.
type Scratch struct {
	ks, y [Lanes][]float64
}

// size makes the first lanes vectors of s hold n values.
func (s *Scratch) size(n, lanes int) {
	for l := 0; l < lanes; l++ {
		if cap(s.ks[l]) < n {
			s.ks[l], s.y[l] = make([]float64, n), make([]float64, n)
		}
		s.ks[l], s.y[l] = s.ks[l][:n], s.y[l][:n]
	}
}

// PredictLanes writes the posterior mean and variance at each of the
// 1..Lanes query points q[l] into mean[l] and variance[l].
//
// Each lane computes the kernel vector k, the mean ȳ + k·α, the forward
// solve L·y = k and the variance k(q,q) − y·y. Because K⁻¹ = L⁻ᵀL⁻¹,
// y·y is kᵀK⁻¹k, so the variance needs no backward solve. The lanes share
// two passes: one over the training rows, which computes every lane's
// squared distance to a row (in mat.Dist2's term order) before its
// covariance, and one over L, where stepping four independent chains of
// dependent subtractions through one row at a time lets the CPU overlap
// them.
//
// It allocates nothing once s has grown to the regressor's size.
func (r *Regressor) PredictLanes(q [][]float64, mean, variance []float64, s *Scratch) {
	m := len(q)
	if m < 1 || m > Lanes {
		panic("gp: PredictLanes takes 1 to Lanes queries")
	}
	kqq := r.Kernel.Cov(0)
	if !r.Fitted() {
		for l := range q {
			mean[l], variance[l] = r.yMean, kqq
		}
		return
	}
	n := len(r.x)
	for _, ql := range q {
		if len(ql) != len(r.x[0]) {
			panic("gp: PredictLanes query width differs from the training rows")
		}
	}
	if m == 1 {
		s.size(n, 1)
	} else {
		s.size(n, Lanes)
	}
	r.kernelVectors(q, &s.ks)
	for l := range q {
		mean[l] = r.yMean + mat.Dot(s.ks[l], r.alpha)
	}
	ld := r.chol.RawData()
	if m == 1 {
		forward1(ld, n, s.ks[0], s.y[0])
	} else {
		// Idle lanes solve lane 0's vector again into their own buffers;
		// their results are never read.
		b := s.ks
		for l := m; l < Lanes; l++ {
			b[l] = s.ks[0]
		}
		forward4(ld, n, &b, &s.y)
	}
	for l := range q {
		v := kqq - mat.Dot(s.y[l], s.y[l])
		if v < 0 {
			v = 0
		}
		variance[l] = v
	}
}

// kernelVectors writes k(q[l], x_i) into ks[l][i] for every lane l and
// training row i. Four lanes share one pass over each row: every lane's
// squared distance adds its terms in mat.Dist2's order, and idle lanes
// repeat lane 0's query without a covariance.
func (r *Regressor) kernelVectors(q [][]float64, ks *[Lanes][]float64) {
	if len(q) == 1 {
		for i, xi := range r.x {
			ks[0][i] = r.Kernel.Cov(mat.Dist2(q[0], xi))
		}
		return
	}
	var qs [Lanes][]float64
	for l := range qs {
		qs[l] = q[0]
	}
	copy(qs[:], q)
	d := len(q[0])
	q0, q1, q2, q3 := qs[0][:d], qs[1][:d], qs[2][:d], qs[3][:d]
	for i, xi := range r.x {
		xi = xi[:d]
		var d0, d1, d2, d3 float64
		for j, v := range xi {
			e0, e1, e2, e3 := q0[j]-v, q1[j]-v, q2[j]-v, q3[j]-v
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		d2s := [Lanes]float64{d0, d1, d2, d3}
		for l := range q {
			ks[l][i] = r.Kernel.Cov(d2s[l])
		}
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
