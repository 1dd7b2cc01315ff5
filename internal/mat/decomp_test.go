package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive definite matrix A = BᵀB + n·I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 12} {
		a := randomSPD(rng, n)
		l, err := cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := l.Mul(l.T())
		if !recon.Equal(a, 1e-8) {
			t.Fatalf("n=%d: L·Lᵀ != A (max err %g)", n, recon.Sub(a).MaxAbs())
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := cholesky(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 8)
	want := make([]float64, 8)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := a.MulVec(want)
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 8)
	SolveCholeskyInto(l, b, make([]float64, 8), got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

func TestLogDetCholesky(t *testing.T) {
	// diag(2, 3, 4): |A| = 24.
	a := New(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	a.Set(2, 2, 4)
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LogDetCholesky(l), math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Fatalf("logdet = %g want %g", got, want)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-10 {
			t.Fatalf("eigenvalues = %v want %v", e.Values, want)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 4, 9} {
		b := randomMatrix(rng, n, n)
		a := b.Add(b.T()) // symmetric
		e, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild A = V·diag(λ)·Vᵀ.
		d := New(n, n)
		for i, v := range e.Values {
			d.Set(i, i, v)
		}
		recon := e.Vectors.Mul(d).Mul(e.Vectors.T())
		if !recon.Equal(a, 1e-8) {
			t.Fatalf("n=%d reconstruction max err %g", n, recon.Sub(a).MaxAbs())
		}
		// Vectors are orthonormal.
		vtv := e.Vectors.T().Mul(e.Vectors)
		if !vtv.Equal(Identity(n), 1e-8) {
			t.Fatalf("n=%d VᵀV != I", n)
		}
		// Values are sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("n=%d eigenvalues not sorted: %v", n, e.Values)
			}
		}
	}
}

// Property: trace(A) equals the sum of eigenvalues of a random symmetric A.
func TestEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(6))
		b := randomMatrix(r, n, n)
		a := b.Add(b.T())
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		return math.Abs(a.Trace()-Sum(e.Values)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLinear(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v want %v", x, want)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system did not error")
	}
}

// Property: SolveLinear(A, A·x) == x for random well-conditioned A.
func TestSolveLinearRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(r.Int31n(8))
		a := randomSPD(r, n) // SPD ⇒ well-conditioned enough
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// cholesky factors a into a fresh matrix.
func cholesky(a *Matrix) (*Matrix, error) {
	l := New(a.rows, a.rows)
	return l, CholeskyInto(l, a)
}
