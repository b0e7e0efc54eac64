// Package cp implements the paper's context parallelism (§4): the input
// sequence is split along its length across a CP group, attention exchanges
// the key/value tensors, and every rank evaluates the attention mask in
// global coordinates — which is what makes irregular document masks work
// where ring-style tiling is error-prone.
//
// A Layout is the row partition: which global positions each CP rank owns.
// Zigzag builds the paper's load-balancing scheme — the sequence is split
// into 2×cp chunks and rank i owns chunks i and 2×cp−i−1, equalising causal
// attention work across ranks (Sharding holds that chunk arithmetic) — and
// NewLayout accepts any planned partition. StrategyKV is the one K/V
// exchange: it executes a per-document Plan in which every document moves by
// the grouped all-gather of §4 or by overlap-hidden ring circulation. The
// all-gather strategy is the all-false Plan, the ring baseline (§7.2's
// TransformerEngine comparator, Fig 13) the all-true Plan, and the adaptive
// strategy prices each document with the shared sim/cost model.
package cp

import (
	"fmt"

	"llama4d/internal/attention"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// Sharding describes the 2×cp chunk assignment for one sequence length.
type Sharding struct {
	Seq int
	CP  int
}

// NewSharding validates and builds a sharding. Seq must be divisible by 2·cp.
func NewSharding(seq, cp int) Sharding {
	if cp <= 0 || seq%(2*cp) != 0 {
		panic(fmt.Sprintf("cp: seq %d not divisible by 2*cp=%d", seq, 2*cp))
	}
	return Sharding{Seq: seq, CP: cp}
}

// ChunkLen returns the token count of one chunk.
func (s Sharding) ChunkLen() int { return s.Seq / (2 * s.CP) }

// Chunks returns the two chunk indices owned by a CP local rank: (i, 2cp−i−1).
func (s Sharding) Chunks(localRank int) (int, int) {
	return localRank, 2*s.CP - localRank - 1
}

// LocalPositions returns the global positions of the rows owned by a local
// rank, in local row order (first chunk then mirrored chunk).
func (s Sharding) LocalPositions(localRank int) []int {
	c := s.ChunkLen()
	a, b := s.Chunks(localRank)
	pos := make([]int, 0, 2*c)
	for i := 0; i < c; i++ {
		pos = append(pos, a*c+i)
	}
	for i := 0; i < c; i++ {
		pos = append(pos, b*c+i)
	}
	return pos
}

// CausalWorkBalanced verifies the defining property of the 2×cp sharding:
// every rank gets the same number of causal attention pairs. Returns the
// per-rank pair counts.
func (s Sharding) CausalWorkBalanced() []int {
	counts := make([]int, s.CP)
	for r := 0; r < s.CP; r++ {
		counts[r] = attention.AllowedPairs(attention.Causal{}, s.LocalPositions(r), s.Seq)
	}
	return counts
}

// Layout is a CP row partition: each local rank owns a strictly increasing
// set of global row positions, and the sets exactly partition 0..Seq-1.
// Zigzag builds the fixed 2×cp scheme; the balance planner
// (internal/balance.PlanShards) emits equal-size cost-balanced partitions for
// document-masked sequences whose causal skew the zigzag scheme cannot
// equalise, and unequal shard sizes are accepted too — the exchange
// reassembles by per-rank row lists, not by a common chunk length.
//
// Bitwise contract: attention is row-independent given the gathered full
// K/V — each query row's scores, softmax and P·V involve only that row — so
// *which* rank computes a row never changes the row's bits. Any Layout
// therefore produces per-row forward outputs (and dQ rows) bit-identical to
// the dense full-sequence kernel and hence to the zigzag baseline. What a
// layout change does regroup is the cross-rank *sum* order of dK/dV
// contributions and of per-token loss terms.
type Layout struct {
	Seq int
	Pos [][]int // Pos[lr] = global row positions owned by local rank lr
}

// NewLayout validates that pos exactly partitions 0..seq-1 with each shard
// strictly increasing, and returns the layout. The slices are retained, not
// copied.
func NewLayout(seq int, pos [][]int) Layout {
	if len(pos) == 0 {
		panic("cp: layout needs at least one shard")
	}
	seen := make([]bool, seq)
	n := 0
	for lr, shard := range pos {
		for i, p := range shard {
			if p < 0 || p >= seq {
				panic(fmt.Sprintf("cp: shard %d row %d outside [0, %d)", lr, p, seq))
			}
			if i > 0 && shard[i-1] >= p {
				panic(fmt.Sprintf("cp: shard %d not strictly increasing at %d", lr, i))
			}
			if seen[p] {
				panic(fmt.Sprintf("cp: row %d in two shards", p))
			}
			seen[p] = true
			n++
		}
	}
	if n != seq {
		panic(fmt.Sprintf("cp: shards cover %d of %d rows", n, seq))
	}
	return Layout{Seq: seq, Pos: pos}
}

// Zigzag returns the paper's 2×cp load-balanced layout of seq rows over cp
// ranks (seq must be divisible by 2·cp).
func Zigzag(seq, cp int) Layout {
	sh := NewSharding(seq, cp)
	pos := make([][]int, cp)
	for lr := range pos {
		pos[lr] = sh.LocalPositions(lr)
	}
	return Layout{Seq: seq, Pos: pos}
}

// LocalPositions returns local rank lr's global row positions.
func (l Layout) LocalPositions(lr int) []int { return l.Pos[lr] }

// LocalRows returns lr's rows of a full-sequence tensor (copy).
func (l Layout) LocalRows(full *tensor.Tensor, lr int) *tensor.Tensor {
	return packRows(full, l.Pos[lr])
}

// LocalInts selects lr's entries of a full-sequence int slice.
func (l Layout) LocalInts(full []int, lr int) []int {
	pos := l.Pos[lr]
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = full[p]
	}
	return out
}

// LocalSample carves one rank's shard out of a full-sequence sample: local
// tokens and targets in local row order. The document ids stay full-length —
// the mask needs the whole sequence (§4 "Dataloaders").
func LocalSample(l Layout, s *model.Sample, lr int) *model.Sample {
	return &model.Sample{
		Tokens:  l.LocalInts(s.Tokens, lr),
		DocIDs:  s.DocIDs, // full sequence: mask computation needs it all
		Targets: l.LocalInts(s.Targets, lr),
	}
}
