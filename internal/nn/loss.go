package nn

import (
	"fmt"
	"math"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// MSELoss returns the mean-squared error over the batch and writes
// ∂L/∂pred into grad, which must have pred's shape.
func MSELoss(pred, target, grad *mat.Matrix) float64 {
	checkLossShapes("MSELoss", pred, target, grad)
	pr, pc := pred.Dims()
	g, t := grad.RawData(), target.RawData()
	loss := 0.0
	for i, p := range pred.RawData() {
		v := p - t[i]
		g[i] = v
		loss += v * v
	}
	n := float64(pr * pc)
	grad.ScaleInPlace(2 / n)
	return loss / n
}

// Softmax applies a row-wise softmax with max-subtraction for stability.
func Softmax(logits *mat.Matrix) *mat.Matrix {
	out := logits.Clone()
	softmaxRows(out)
	return out
}

// softmaxRows replaces every row of m by its softmax.
func softmaxRows(m *mat.Matrix) {
	for i := 0; i < m.Rows(); i++ {
		row := m.RawRow(i)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// CrossEntropyLoss computes the mean softmax cross-entropy against one-hot
// rows of target (each row of target must sum to 1) and writes
// ∂L/∂logits into grad, which must have the logits' shape.
func CrossEntropyLoss(logits, target, grad *mat.Matrix) float64 {
	checkLossShapes("CrossEntropyLoss", logits, target, grad)
	pr := logits.Rows()
	// grad holds the softmax probabilities until they become the gradient.
	probs := grad
	copy(probs.RawData(), logits.RawData())
	softmaxRows(probs)
	loss := 0.0
	for i := 0; i < pr; i++ {
		p, t := probs.RawRow(i), target.RawRow(i)
		for j, tv := range t {
			if tv > 0 {
				loss -= tv * math.Log(math.Max(p[j], 1e-12))
			}
		}
	}
	// ∂L/∂logits = (softmax - target) / batch.
	g, t := grad.RawData(), target.RawData()
	for i := range g {
		g[i] -= t[i]
	}
	grad.ScaleInPlace(1 / float64(pr))
	return loss / float64(pr)
}

// checkLossShapes panics unless pred, target and grad share one shape.
func checkLossShapes(name string, pred, target, grad *mat.Matrix) {
	pr, pc := pred.Dims()
	tr, tc := target.Dims()
	gr, gc := grad.Dims()
	if pr != tr || pc != tc || pr != gr || pc != gc {
		panic(fmt.Sprintf("nn: %s %dx%d vs %dx%d, grad %dx%d", name, pr, pc, tr, tc, gr, gc))
	}
}

// KLDivergence returns the mean KL(target ‖ pred-probabilities) over rows,
// for distributions already in probability space.
func KLDivergence(target, pred *mat.Matrix) float64 {
	pr, pc := pred.Dims()
	tr, tc := target.Dims()
	if pr != tr || pc != tc {
		panic(fmt.Sprintf("nn: KLDivergence %dx%d vs %dx%d", pr, pc, tr, tc))
	}
	total := 0.0
	for i := 0; i < pr; i++ {
		t, p := target.RawRow(i), pred.RawRow(i)
		for j, tv := range t {
			if tv > 0 {
				total += tv * math.Log(tv/math.Max(p[j], 1e-12))
			}
		}
	}
	return total / float64(pr)
}
