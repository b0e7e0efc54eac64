package attention

import (
	"math/rand"
	"testing"

	"llama4d/internal/tensor"
)

// BenchmarkKernelBlockedForward measures the mask-structured blocked engine
// against the dense reference on a document-masked 512-key head — the
// blocked-vs-dense bitwise guard runs before timing, so smoke-bench catches
// any divergence between the two implementations.
func BenchmarkKernelBlockedForward(b *testing.B) {
	const sq, sk, d = 256, 512, 64
	rng := rand.New(rand.NewSource(88))
	q := tensor.RandN(rng, 0.5, sq, d)
	k := tensor.RandN(rng, 0.5, sk, d)
	v := tensor.RandN(rng, 0.5, sk, d)
	m := Document{DocID: DocIDsFromLengths([]int{200, 150, 162}, sk)}
	qPos := Iota(sq)

	prev := SetBlocked(true)
	defer SetBlocked(prev)
	dense := DenseForward(q, k, v, m, qPos, 0)
	blocked := Forward(q, k, v, m, qPos, 0)
	if !tensor.BitwiseEqual(dense.O, blocked.O) || !tensor.BitwiseEqual(dense.P, blocked.P) {
		b.Fatal("impl=dense and impl=blocked disagree")
	}
	tensor.Put(dense.O, dense.P, blocked.O, blocked.P)

	b.Run("impl=dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := DenseForward(q, k, v, m, qPos, 0)
			tensor.Put(out.O, out.P)
		}
	})
	b.Run("impl=blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := Forward(q, k, v, m, qPos, 0)
			tensor.Put(out.O, out.P)
		}
	})
}
