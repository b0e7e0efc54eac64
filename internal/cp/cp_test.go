package cp

import (
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

func TestShardingChunks(t *testing.T) {
	s := NewSharding(16, 2)
	if s.ChunkLen() != 4 {
		t.Fatalf("chunk len = %d", s.ChunkLen())
	}
	a, b := s.Chunks(0)
	if a != 0 || b != 3 {
		t.Fatalf("rank 0 chunks = %d,%d", a, b)
	}
	a, b = s.Chunks(1)
	if a != 1 || b != 2 {
		t.Fatalf("rank 1 chunks = %d,%d", a, b)
	}
}

func TestShardingPartitionsSequence(t *testing.T) {
	s := NewSharding(24, 3)
	seen := make(map[int]bool)
	for r := 0; r < 3; r++ {
		for _, p := range s.LocalPositions(r) {
			if seen[p] {
				t.Fatalf("position %d owned twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != 24 {
		t.Fatalf("positions covered: %d", len(seen))
	}
}

func TestCausalWorkBalanced(t *testing.T) {
	// The headline property of the 2×cp sharding (§4, Fig 7a).
	for _, cp := range []int{2, 4, 8} {
		s := NewSharding(64*cp, cp)
		counts := s.CausalWorkBalanced()
		for r := 1; r < cp; r++ {
			if counts[r] != counts[0] {
				t.Fatalf("cp=%d: unbalanced causal work %v", cp, counts)
			}
		}
	}
}

func TestNaiveContiguousShardingIsUnbalanced(t *testing.T) {
	// Contrast: contiguous sharding (rank i gets chunk i of cp chunks) has
	// the last rank doing ~(2cp−1)× the first rank's causal work.
	seq, cpn := 64, 4
	chunk := seq / cpn
	var counts []int
	for r := 0; r < cpn; r++ {
		pos := make([]int, chunk)
		for i := range pos {
			pos[i] = r*chunk + i
		}
		counts = append(counts, attention.AllowedPairs(attention.Causal{}, pos, seq))
	}
	if counts[cpn-1] <= 2*counts[0] {
		t.Fatalf("expected heavy imbalance, got %v", counts)
	}
}

func TestLocalRowsAndScatterRoundTrip(t *testing.T) {
	l := Zigzag(8, 2)
	rng := rand.New(rand.NewSource(1))
	full := tensor.RandN(rng, 1, 8, 3)
	sum := tensor.New(8, 3)
	for r := 0; r < 2; r++ {
		local := l.LocalRows(full, r)
		for i, p := range l.LocalPositions(r) {
			di, li := sum.Row(p), local.Row(i)
			for j := range di {
				di[j] += li[j]
			}
		}
	}
	if !tensor.BitwiseEqual(sum, full) {
		t.Fatal("LocalRows scattered back must reconstruct the full tensor")
	}
}

func newCPWorld(cpSize int) (*comm.World, *comm.Group) {
	w := comm.NewWorld(cpSize)
	ranks := make([]int, cpSize)
	for i := range ranks {
		ranks[i] = i
	}
	return w, w.NewGroup(ranks)
}

// purePlan is the single-strategy Plan over the given document starts: the
// all-gather of §4 when ring is false, the ring baseline when true.
func purePlan(seq int, starts []int, ring bool) Plan {
	p := Plan{Seq: seq, DocStarts: starts, Ring: make([]bool, len(starts))}
	for d := range p.Ring {
		p.Ring[d] = ring
	}
	return p
}

// purePlans names the two pure strategies' plans over one causal document.
func purePlans(seq int) map[string]Plan {
	return map[string]Plan{
		"allgather": purePlan(seq, []int{0}, false),
		"ring":      purePlan(seq, []int{0}, true),
	}
}

// exchangeAttention runs one head of CP attention through kv the way the
// model's streamed path does: score columns fill as K/V blocks arrive, and
// the softmax and P·V finish once the exchange completes. q, k, v are the
// rank's local rows; the gathered full K/V are returned for the backward.
func exchangeAttention(kv *StrategyKV, q, k, v *tensor.Tensor, mask attention.Mask) (out *attention.Output, fullK, fullV *tensor.Tensor) {
	qPos := kv.Layout.LocalPositions(kv.Group.LocalRank(kv.Rank))
	seq := kv.SeqLen()
	g := attention.BuildGrid(mask, qPos, 0, seq)
	s := tensor.Get(q.Rows(), seq)
	fullK, fullV = kv.StreamKV(k, v, func(kBlk, _ *tensor.Tensor, runs []model.PosRun) {
		for _, run := range runs {
			attention.StreamScores(s, q, kBlk, 0, run.Off, run.Start, run.Rows, g)
		}
	})
	return attention.StreamFinish(s, fullV, mask, qPos, g, nil), fullK, fullV
}

func TestGatherKVGlobalOrder(t *testing.T) {
	seq, cpSize := 8, 2
	l := Zigzag(seq, cpSize)
	rng := rand.New(rand.NewSource(2))
	fullK := tensor.RandN(rng, 1, seq, 3)
	fullV := tensor.RandN(rng, 1, seq, 3)
	for name, plan := range purePlans(seq) {
		w, g := newCPWorld(cpSize)
		results := make([]*tensor.Tensor, cpSize)
		comm.RunSPMD(cpSize, func(rank int) {
			kv := NewStrategyKV(l, plan, g, w, rank, RingTagBase(0))
			gk, gv := kv.GatherKV(l.LocalRows(fullK, rank), l.LocalRows(fullV, rank))
			if !tensor.BitwiseEqual(gv, fullV) {
				panic("gathered V out of order")
			}
			results[rank] = gk
		})
		for r := 0; r < cpSize; r++ {
			if !tensor.BitwiseEqual(results[r], fullK) {
				t.Fatalf("%s: rank %d gathered K differs from global order", name, r)
			}
		}
	}
}

func TestCPAttentionMatchesSequential(t *testing.T) {
	// The centerpiece: a full GQA attention layer under CP must match the
	// sequential layer, forward and backward, for causal and document masks.
	seq, dim, nh, nkv, hd := 16, 16, 4, 2, 4
	rng := rand.New(rand.NewSource(3))
	layer := model.NewAttention("attn", dim, nh, nkv, hd, 10000, rng)
	x := tensor.RandN(rng, 0.5, seq, dim)
	dy := tensor.RandN(rng, 0.5, seq, dim)

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{3, 3, 8, 2}, seq)},
	}
	for name, mask := range masks {
		envSeq := model.SeqEnv(seq, mask)
		want, c := layer.Forward(x, envSeq)
		model.ZeroGrads(layer.Params())
		wantDx := layer.Backward(c, dy)
		wantG := model.GradientVector(layer.Params())

		for _, cpSize := range []int{2, 4} {
			for planName, plan := range purePlans(seq) {
				s := Zigzag(seq, cpSize)
				w, g := newCPWorld(cpSize)
				outs := make([]*tensor.Tensor, cpSize)
				dxs := make([]*tensor.Tensor, cpSize)
				grads := make([]*tensor.Tensor, cpSize)
				// Each CP rank has a replica of the layer weights.
				replicas := make([]*model.Attention, cpSize)
				for r := 0; r < cpSize; r++ {
					rr := rand.New(rand.NewSource(99))
					rep := model.NewAttention("attn", dim, nh, nkv, hd, 10000, rr)
					for i, p := range rep.Params() {
						copy(p.W.Data, layer.Params()[i].W.Data)
					}
					replicas[r] = rep
				}
				comm.RunSPMD(cpSize, func(rank int) {
					env := StrategyEnv(s, plan, mask, g, w, rank, RingTagBase(0))
					xl := s.LocalRows(x, rank)
					dyl := s.LocalRows(dy, rank)
					y, cc := replicas[rank].Forward(xl, env)
					outs[rank] = y
					dxs[rank] = replicas[rank].Backward(cc, dyl)
					grads[rank] = model.GradientVector(replicas[rank].Params())
				})
				// Outputs/input-grads: local rows of the sequential result.
				for r := 0; r < cpSize; r++ {
					if d := tensor.MaxDiff(outs[r], s.LocalRows(want, r)); d > 1e-4 {
						t.Fatalf("%s %s cp=%d rank %d fwd diff %v", name, planName, cpSize, r, d)
					}
					if d := tensor.MaxDiff(dxs[r], s.LocalRows(wantDx, r)); d > 1e-4 {
						t.Fatalf("%s %s cp=%d rank %d dx diff %v", name, planName, cpSize, r, d)
					}
				}
				// Weight grads: sum over CP ranks equals sequential gradient
				// (CP extends DP for parameter communication, §4 "Integration").
				sum := grads[0].Clone()
				for r := 1; r < cpSize; r++ {
					sum.Add(grads[r])
				}
				if d := tensor.MaxDiff(sum, wantG); d > 1e-3 {
					t.Fatalf("%s %s cp=%d summed weight grads diff %v", name, planName, cpSize, d)
				}
			}
		}
	}
}

func TestCPBlockMatchesSequential(t *testing.T) {
	seq := 16
	cfg := model.Config{Vocab: 16, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 1, MaxSeq: seq, RopeBase: 10000}
	rng := rand.New(rand.NewSource(4))
	blk := model.NewBlock("b", cfg, rng)
	mask := attention.Document{DocID: attention.DocIDsFromLengths([]int{5, 6, 5}, seq)}
	x := tensor.RandN(rng, 0.5, seq, cfg.Dim)

	want, _ := blk.Forward(x, model.SeqEnv(seq, mask))

	cpSize := 2
	s := Zigzag(seq, cpSize)
	w, g := newCPWorld(cpSize)
	reps := make([]*model.Block, cpSize)
	for r := 0; r < cpSize; r++ {
		rep := model.NewBlock("b", cfg, rand.New(rand.NewSource(5)))
		for i, p := range rep.Params() {
			copy(p.W.Data, blk.Params()[i].W.Data)
		}
		reps[r] = rep
	}
	outs := make([]*tensor.Tensor, cpSize)
	comm.RunSPMD(cpSize, func(rank int) {
		env := StrategyEnv(s, purePlan(seq, []int{0}, false), mask, g, w, rank, RingTagBase(0))
		y, _ := reps[rank].Forward(s.LocalRows(x, rank), env)
		outs[rank] = y
	})
	for r := 0; r < cpSize; r++ {
		if d := tensor.MaxDiff(outs[r], s.LocalRows(want, r)); d > 1e-4 {
			t.Fatalf("rank %d block-under-CP diff %v", r, d)
		}
	}
}

func TestRingMatchesAllGatherAndSequential(t *testing.T) {
	// The ring plan (the §7.2 baseline) must agree with both the all-gather
	// plan and the sequential oracle on a single head.
	seq, d := 24, 8
	rng := rand.New(rand.NewSource(6))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{7, 9, 8}, seq)},
	}
	for name, mask := range masks {
		want := attention.Forward(q, k, v, mask, attention.Iota(seq), 0).O
		for _, cpSize := range []int{2, 3} {
			if seq%(2*cpSize) != 0 {
				continue
			}
			s := Zigzag(seq, cpSize)
			w, g := newCPWorld(cpSize)
			ringOuts := make([]*tensor.Tensor, cpSize)
			agOuts := make([]*tensor.Tensor, cpSize)
			comm.RunSPMD(cpSize, func(rank int) {
				ql := s.LocalRows(q, rank)
				kl := s.LocalRows(k, rank)
				vl := s.LocalRows(v, rank)
				ring := NewStrategyKV(s, purePlan(seq, []int{0}, true), g, w, rank, RingTagBase(0))
				out, _, _ := exchangeAttention(ring, ql, kl, vl, mask)
				ringOuts[rank] = out.O
				ag := NewStrategyKV(s, purePlan(seq, []int{0}, false), g, w, rank, RingTagBase(1))
				out, _, _ = exchangeAttention(ag, s.LocalRows(q, rank), s.LocalRows(k, rank), s.LocalRows(v, rank), mask)
				agOuts[rank] = out.O
			})
			for r := 0; r < cpSize; r++ {
				wantLocal := s.LocalRows(want, r)
				if dd := tensor.MaxDiff(ringOuts[r], wantLocal); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d ring diff %v", name, cpSize, r, dd)
				}
				if dd := tensor.MaxDiff(agOuts[r], wantLocal); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d all-gather diff %v", name, cpSize, r, dd)
				}
			}
		}
	}
}

func TestLocalSampleKeepsFullDocIDs(t *testing.T) {
	gen := &data.Generator{Vocab: 32, Seq: 16, AvgDocLen: 4, Seed: 1}
	sample := gen.Sample(0)
	s := Zigzag(16, 2)
	ls := LocalSample(s, sample, 1)
	if len(ls.Tokens) != 8 || len(ls.Targets) != 8 {
		t.Fatal("local sample must have local token/target rows")
	}
	if len(ls.DocIDs) != 16 {
		t.Fatal("local sample must keep the full document-id vector (§4 Dataloaders)")
	}
	pos := s.LocalPositions(1)
	for i, p := range pos {
		if ls.Tokens[i] != sample.Tokens[p] {
			t.Fatal("local tokens must follow local positions")
		}
	}
}

func TestCPEndToEndModelGradients(t *testing.T) {
	// Full model under CP: summed parameter gradients across CP ranks equal
	// the sequential model's gradients on the same sample; combined loss
	// matches.
	cfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 2, MaxSeq: 16, RopeBase: 10000}
	seq := 16
	gen := &data.Generator{Vocab: cfg.Vocab, Seq: seq, AvgDocLen: 5, Seed: 3}
	sample := gen.Sample(0)
	mask := attention.Document{DocID: sample.DocIDs}

	ref := model.New(cfg, rand.New(rand.NewSource(7)))
	ref.ZeroGrads()
	refLoss, ctx := ref.ForwardLoss(sample.Tokens, sample.Targets, model.SeqEnv(seq, mask), 1)
	ref.Backward(ctx)
	refG := model.GradientVector(ref.Params())

	// Count valid targets globally and locally for gradient scaling.
	totalValid := 0
	for _, tg := range sample.Targets {
		if tg >= 0 {
			totalValid++
		}
	}
	cpSize := 2
	s := Zigzag(seq, cpSize)
	for planName, plan := range purePlans(seq) {
		w, g := newCPWorld(cpSize)
		reps := make([]*model.Model, cpSize)
		for r := 0; r < cpSize; r++ {
			reps[r] = model.New(cfg, rand.New(rand.NewSource(8)))
			ref.CopyWeightsTo(reps[r].Params())
		}
		losses := make([]float64, cpSize)
		localValid := make([]int, cpSize)
		comm.RunSPMD(cpSize, func(rank int) {
			ls := LocalSample(s, sample, rank)
			valid := 0
			for _, tg := range ls.Targets {
				if tg >= 0 {
					valid++
				}
			}
			localValid[rank] = valid
			env := StrategyEnv(s, plan, mask, g, w, rank, RingTagBase(0))
			reps[rank].ZeroGrads()
			scale := float32(valid) / float32(totalValid)
			loss, cc := reps[rank].ForwardLoss(ls.Tokens, ls.Targets, env, scale)
			reps[rank].Backward(cc)
			losses[rank] = loss
		})

		// Combined loss: token-weighted mean of per-rank means.
		var combined float64
		for r := 0; r < cpSize; r++ {
			combined += losses[r] * float64(localValid[r]) / float64(totalValid)
		}
		if math.Abs(combined-refLoss) > 1e-5 {
			t.Fatalf("%s: combined CP loss %v != sequential %v", planName, combined, refLoss)
		}
		sum := model.GradientVector(reps[0].Params())
		sum.Add(model.GradientVector(reps[1].Params()))
		if d := tensor.MaxDiff(sum, refG); d > 1e-3 {
			t.Fatalf("%s: summed CP grads differ from sequential by %v", planName, d)
		}
	}
}

func TestShardingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible sharding must panic")
		}
	}()
	NewSharding(10, 4)
}

func benchCPAttention(b *testing.B, ring bool) {
	seq, d, cpSize := 128, 32, 4
	s := Zigzag(seq, cpSize)
	w, g := newCPWorld(cpSize)
	rng := rand.New(rand.NewSource(1))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.RunSPMD(cpSize, func(rank int) {
			kv := NewStrategyKV(s, purePlan(seq, []int{0}, ring), g, w, rank, RingTagBase(0))
			exchangeAttention(kv, s.LocalRows(q, rank), s.LocalRows(k, rank), s.LocalRows(v, rank), attention.Causal{})
		})
	}
}

func BenchmarkAllGatherCPAttention(b *testing.B) { benchCPAttention(b, false) }

func BenchmarkRingCPAttention(b *testing.B) { benchCPAttention(b, true) }

func TestRingBackwardMatchesOracle(t *testing.T) {
	// Backward through the ring plan — local dQ from the gathered K/V, dK/dV
	// reduced back to their owners — must produce the same gradients as the
	// naive oracle on the full sequence, for causal and document masks.
	seq, d := 24, 8
	rng := rand.New(rand.NewSource(16))
	q := tensor.RandN(rng, 0.5, seq, d)
	k := tensor.RandN(rng, 0.5, seq, d)
	v := tensor.RandN(rng, 0.5, seq, d)
	dO := tensor.RandN(rng, 0.5, seq, d)

	masks := map[string]attention.Mask{
		"causal": attention.Causal{},
		"doc":    attention.Document{DocID: attention.DocIDsFromLengths([]int{7, 9, 8}, seq)},
	}
	for name, mask := range masks {
		out := attention.Forward(q, k, v, mask, attention.Iota(seq), 0)
		wantDQ, wantDK, wantDV := attention.Backward(q, k, v, out.P, dO, mask, attention.Iota(seq), 0)

		for _, cpSize := range []int{2, 3} {
			s := Zigzag(seq, cpSize)
			w, g := newCPWorld(cpSize)
			dqs := make([]*tensor.Tensor, cpSize)
			dks := make([]*tensor.Tensor, cpSize)
			dvs := make([]*tensor.Tensor, cpSize)
			comm.RunSPMD(cpSize, func(rank int) {
				_, dqs[rank], dks[rank], dvs[rank] = ringGrads(s, g, w, rank, q, k, v, dO, mask)
			})
			for r := 0; r < cpSize; r++ {
				if dd := tensor.MaxDiff(dqs[r], s.LocalRows(wantDQ, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dQ diff %v", name, cpSize, r, dd)
				}
				if dd := tensor.MaxDiff(dks[r], s.LocalRows(wantDK, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dK diff %v", name, cpSize, r, dd)
				}
				if dd := tensor.MaxDiff(dvs[r], s.LocalRows(wantDV, r)); dd > 1e-4 {
					t.Fatalf("%s cp=%d rank %d dV diff %v", name, cpSize, r, dd)
				}
			}
		}
	}
}

// ringGrads runs one head forward and backward under the ring plan on one
// CP rank: the gathered K/V feed the local backward, and the full-sequence
// dK/dV contributions reduce back to the rank's own rows. q, k, v, dO are
// full-sequence; the forward output and gradients are the rank's rows.
func ringGrads(l Layout, g *comm.Group, w *comm.World, rank int, q, k, v, dO *tensor.Tensor, mask attention.Mask) (o, dQ, dK, dV *tensor.Tensor) {
	pos := l.LocalPositions(g.LocalRank(rank))
	kv := NewStrategyKV(l, purePlan(l.Seq, []int{0}, true), g, w, rank, RingTagBase(0))
	ql := packRows(q, pos)
	out, fullK, fullV := exchangeAttention(kv, ql, packRows(k, pos), packRows(v, pos), mask)
	dQ, dKFull, dVFull := attention.Backward(ql, fullK, fullV, out.P, packRows(dO, pos), mask, pos, 0)
	dK, dV = kv.ReduceKVGrad(dKFull, dVFull)
	return out.O, dQ, dK, dV
}
