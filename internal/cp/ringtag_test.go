package cp

import (
	"math/rand"
	"sync"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/tensor"
)

// Two ring exchanges in flight on one world must not collide: each instance
// derives its tags from its own RingTagBase namespace, so rank A's step-t
// block from instance 1 can never satisfy rank B's step-t receive of
// instance 2. These tests run two ring-plan exchanges concurrently per rank
// — full streamed attention, and bare K/V assembly — and check both against
// their sequential selves.

func TestConcurrentRingsDisjointTags(t *testing.T) {
	seq, d, cpSize := 32, 8, 4
	rng := rand.New(rand.NewSource(21))
	qa := tensor.RandN(rng, 0.5, seq, d)
	ka := tensor.RandN(rng, 0.5, seq, d)
	va := tensor.RandN(rng, 0.5, seq, d)
	qb := tensor.RandN(rng, 0.5, seq, d)
	kb := tensor.RandN(rng, 0.5, seq, d)
	vb := tensor.RandN(rng, 0.5, seq, d)
	s := Zigzag(seq, cpSize)
	plan := purePlan(seq, []int{0}, true)
	mask := attention.Causal{}
	forward := func(g *comm.Group, w *comm.World, rank, slot int, q, k, v *tensor.Tensor) *tensor.Tensor {
		kv := NewStrategyKV(s, plan, g, w, rank, RingTagBase(slot))
		out, _, _ := exchangeAttention(kv, s.LocalRows(q, rank), s.LocalRows(k, rank), s.LocalRows(v, rank), mask)
		return out.O
	}

	// Sequential reference: each instance alone on its own world.
	ref := func(q, k, v *tensor.Tensor) []*tensor.Tensor {
		w, g := newCPWorld(cpSize)
		outs := make([]*tensor.Tensor, cpSize)
		if err := w.RunSPMD(func(rank int) {
			outs[rank] = forward(g, w, rank, 0, q, k, v)
		}); err != nil {
			t.Fatal(err)
		}
		return outs
	}
	wantA := ref(qa, ka, va)
	wantB := ref(qb, kb, vb)

	// Concurrent run: both instances interleave on one world, tags disjoint.
	w, g := newCPWorld(cpSize)
	gotA := make([]*tensor.Tensor, cpSize)
	gotB := make([]*tensor.Tensor, cpSize)
	if err := w.RunSPMD(func(rank int) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			gotA[rank] = forward(g, w, rank, 0, qa, ka, va)
		}()
		go func() {
			defer wg.Done()
			gotB[rank] = forward(g, w, rank, 1, qb, kb, vb)
		}()
		wg.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < cpSize; rank++ {
		if !tensor.BitwiseEqual(gotA[rank], wantA[rank]) {
			t.Fatalf("rank %d: instance A output corrupted by concurrent instance B", rank)
		}
		if !tensor.BitwiseEqual(gotB[rank], wantB[rank]) {
			t.Fatalf("rank %d: instance B output corrupted by concurrent instance A", rank)
		}
	}
}

func TestConcurrentStrategyKVDisjointTags(t *testing.T) {
	seq, cols, cpSize := 32, 16, 4
	rng := rand.New(rand.NewSource(22))
	ka := tensor.RandN(rng, 0.5, seq, cols)
	va := tensor.RandN(rng, 0.5, seq, cols)
	kb := tensor.RandN(rng, 0.5, seq, cols)
	vb := tensor.RandN(rng, 0.5, seq, cols)
	layout := Zigzag(seq, cpSize)
	plan := purePlan(seq, []int{0}, true)

	w, g := newCPWorld(cpSize)
	if err := w.RunSPMD(func(rank int) {
		check := func(k, v *tensor.Tensor, slot int) {
			kv := NewStrategyKV(layout, plan, g, w, rank, RingTagBase(slot))
			fullK, fullV := kv.GatherKV(packRows(k, layout.LocalPositions(rank)), packRows(v, layout.LocalPositions(rank)))
			if !tensor.BitwiseEqual(fullK, k) || !tensor.BitwiseEqual(fullV, v) {
				panic("assembled K/V corrupted under concurrent circulation")
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); check(ka, va, 0) }()
		go func() { defer wg.Done(); check(kb, vb, 1) }()
		wg.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRingRaggedLayout drives the ring plan over arbitrary ragged
// partitions — uneven contiguous shards and maximally fragmented strided
// ones. Forward and backward must match the dense oracle.
func TestRingRaggedLayout(t *testing.T) {
	seq, d, cpSize := 48, 8, 3
	rng := rand.New(rand.NewSource(23))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	dO := tensor.RandN(rng, 0.5, seq, d)

	// Uneven contiguous shards [20, 17, 11] plus a fragmented shard set.
	contig := [][]int{seqRange(0, 20), seqRange(20, 37), seqRange(37, 48)}
	var strided [][]int
	for r := 0; r < cpSize; r++ {
		var p []int
		for i := r; i < seq; i += cpSize {
			p = append(p, i)
		}
		strided = append(strided, p)
	}

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{13, 21, 14}, seq)},
	}
	for name, mask := range masks {
		out := attention.Forward(q, k, v, mask, attention.Iota(seq), 0)
		wantDQ, wantDK, wantDV := attention.Backward(q, k, v, out.P, dO, mask, attention.Iota(seq), 0)
		for layoutName, parts := range map[string][][]int{"contig": contig, "strided": strided} {
			s := NewLayout(seq, parts)
			w, g := newCPWorld(cpSize)
			if err := w.RunSPMD(func(rank int) {
				pos := s.LocalPositions(rank)
				o, dq, dk, dv := ringGrads(s, g, w, rank, q, k, v, dO, mask)
				if dd := tensor.MaxDiff(o, packRows(out.O, pos)); dd > 1e-4 {
					panic("forward diff too large")
				}
				if dd := tensor.MaxDiff(dq, packRows(wantDQ, pos)); dd > 1e-4 {
					panic("dQ diff too large")
				}
				if dd := tensor.MaxDiff(dk, packRows(wantDK, pos)); dd > 1e-4 {
					panic("dK diff too large")
				}
				if dd := tensor.MaxDiff(dv, packRows(wantDV, pos)); dd > 1e-4 {
					panic("dV diff too large")
				}
			}); err != nil {
				t.Fatalf("%s/%s: %v", name, layoutName, err)
			}
		}
	}
}

func seqRange(lo, hi int) []int {
	p := make([]int, hi-lo)
	for i := range p {
		p[i] = lo + i
	}
	return p
}
