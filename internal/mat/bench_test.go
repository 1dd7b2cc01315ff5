package mat

import (
	"math/rand"
	"testing"
)

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 64, 64)
	c := randomMatrix(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(c)
	}
}

func BenchmarkCholesky128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 32, 32)
	a := m.Add(m.T())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}
