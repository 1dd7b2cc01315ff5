package gp

import "github.com/neuralcompile/glimpse/internal/mat"

// Lanes is the most queries one PredictLanes call evaluates together.
const Lanes = 4

// Scratch is the caller-owned workspace of PredictLanes. A call on two to
// four queries keeps them interleaved: row j of q holds feature j of every
// lane, and row i of k every lane's kernel value i, which the forward
// solve then overwrites with its solution. A one-lane call uses the plain
// vector k1 the same way. The zero value is ready to use and grows to the
// regressor's size on first use, so one Scratch serves any number of calls
// and regressors. A Scratch must not be shared between goroutines.
type Scratch struct {
	q, k [][Lanes]float64
	k1   []float64
}

// size makes s hold the buffers of a call with the given lane count over
// n training rows of d features.
func (s *Scratch) size(n, d, lanes int) {
	if lanes == 1 {
		s.k1 = grow(s.k1, n)
		return
	}
	s.k, s.q = grow(s.k, n), grow(s.q, d)
}

// grow returns buf resliced to n values, or new storage if buf holds
// fewer.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// PredictLanes writes the posterior mean and variance at each of the
// 1..Lanes query points q[l] into mean[l] and variance[l].
//
// Each lane computes the kernel vector k, the mean ȳ + k·α, the forward
// solve L·y = k and the variance k(q,q) − y·y. Because K⁻¹ = L⁻ᵀL⁻¹,
// y·y is kᵀK⁻¹k, so the variance needs no backward solve. Two to four
// queries run as four interleaved lanes that share two passes: one over
// the training rows, which computes every lane's squared distance to a
// row (in mat.Dist2's term order), its covariance and its term of k·α,
// and one over L, which steps the four independent forward solves
// through one row at a time and adds each solved value's square to y·y.
// Idle lanes repeat lane 0's query and are never read. Every lane keeps
// the one-lane path's operation order, so the lane count does not change
// a result bit; where the CPU allows, the assembly kernel (see kernel
// selection in simd.go) runs the four-lane passes.
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
	n, d := len(r.x), len(r.x[0])
	for _, ql := range q {
		if len(ql) != d {
			panic("gp: PredictLanes query width differs from the training rows")
		}
	}
	ld := r.chol.RawData()
	if m == 1 {
		s.size(n, d, 1)
		k := s.k1
		for i, xi := range r.x {
			k[i] = r.Kernel.Cov(mat.Dist2(q[0], xi))
		}
		mean[0] = r.yMean + mat.Dot(k, r.alpha)
		forward1(ld, n, k, k)
		variance[0] = clampVariance(kqq - mat.Dot(k, k))
		return
	}
	s.size(n, d, Lanes)
	for l := 0; l < Lanes; l++ {
		ql := q[0]
		if l < m {
			ql = q[l]
		}
		for j, v := range ql {
			s.q[j][l] = v
		}
	}
	var kAlpha, yy [Lanes]float64
	if useKernel {
		if kernelRowsAsm(s.q, r.x, r.Kernel.Variance, r.Kernel.LengthScale, r.alpha, s.k, &kAlpha) != 0 {
			// A lane's exp argument left the kernel's range: redo the
			// pass in Go, which handles every argument.
			r.kernelRows(s.q, s.k, &kAlpha)
		}
		forwardAsm(ld, s.k, &yy)
	} else {
		r.kernelRows(s.q, s.k, &kAlpha)
		forward4(ld, s.k, &yy)
	}
	for l := range q {
		mean[l] = r.yMean + kAlpha[l]
		variance[l] = clampVariance(kqq - yy[l])
	}
}

// clampVariance maps a variance that rounding pushed below zero to zero.
func clampVariance(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// kernelRows writes k(q_l, x_i) into ks[i][l] for the interleaved
// queries q and every training row i, and k_l·α into kAlpha[l]. Each
// lane's squared distance adds its terms in mat.Dist2's order and its
// dot product in mat.Dot's.
func (r *Regressor) kernelRows(q, ks [][Lanes]float64, kAlpha *[Lanes]float64) {
	ks = ks[:len(r.x)]
	alpha := r.alpha[:len(r.x)]
	var a0, a1, a2, a3 float64
	for i, xi := range r.x {
		xi = xi[:len(q)]
		var d0, d1, d2, d3 float64
		for j, v := range xi {
			qj := &q[j]
			e0, e1, e2, e3 := qj[0]-v, qj[1]-v, qj[2]-v, qj[3]-v
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		k := &ks[i]
		k[0], k[1], k[2], k[3] = r.Kernel.Cov(d0), r.Kernel.Cov(d1), r.Kernel.Cov(d2), r.Kernel.Cov(d3)
		a0 += k[0] * alpha[i]
		a1 += k[1] * alpha[i]
		a2 += k[2] * alpha[i]
		a3 += k[3] * alpha[i]
	}
	*kAlpha = [Lanes]float64{a0, a1, a2, a3}
}

// forward1 solves L·y = b by forward substitution; ld is L row-major. y
// may be b itself: row i reads b[i] before it writes y[i].
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

// forward4 is forward1 in place on four interleaved lanes: y holds the
// right-hand sides on entry and the solutions on return, each lane keeping
// forward1's term order. It writes each lane's y·y, summed in mat.Dot's
// order, into yy.
func forward4(ld []float64, y [][Lanes]float64, yy *[Lanes]float64) {
	n := len(y)
	var q0, q1, q2, q3 float64
	for i := 0; i < n; i++ {
		row := ld[i*n : i*n+i+1]
		p := y[:i]
		yi := &y[i]
		s0, s1, s2, s3 := yi[0], yi[1], yi[2], yi[3]
		for k, lik := range row[:i] {
			yk := &p[k]
			s0 -= lik * yk[0]
			s1 -= lik * yk[1]
			s2 -= lik * yk[2]
			s3 -= lik * yk[3]
		}
		d := row[i]
		yi[0], yi[1], yi[2], yi[3] = s0/d, s1/d, s2/d, s3/d
		q0 += yi[0] * yi[0]
		q1 += yi[1] * yi[1]
		q2 += yi[2] * yi[2]
		q3 += yi[3] * yi[3]
	}
	*yy = [Lanes]float64{q0, q1, q2, q3}
}
