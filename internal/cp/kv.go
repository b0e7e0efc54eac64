package cp

import (
	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// RingLabel is the comm accounting label of the ring CP exchange: its
// traffic shows up as "cp.ring/send" and "cp.ring/recv" in the per-rank
// breakdown (and, because every transfer is handle-based, in the overlap
// split), separate from the pipeline's "p2p" and the collective "cp" lanes.
const RingLabel = "cp.ring"

const (
	// ringKVTagBase opens the StrategyKV tag region, far above the small
	// pipeline tags.
	ringKVTagBase = 1 << 28
	// ringTagStride separates instances (one per microbatch sample slot):
	// an instance never issues more than ringTagStride tags (layers ×
	// recompute replays × maxRingSteps × 2 stays far below 1<<20).
	ringTagStride = 1 << 20
	// maxRingSteps bounds the CP group size the tag layout supports.
	maxRingSteps = 256
)

// RingTagBase returns the disjoint tag namespace of microbatch-sample slot
// `slot`. Every CP rank of one sample derives the same slot from the
// schedule, so the namespaces agree without coordination — and two samples
// in flight on one world can never collide.
func RingTagBase(slot int) int { return ringKVTagBase + slot*ringTagStride }

// rankSplit is one local rank's precomputed routing: which of its local rows
// travel the ring vs the all-gather, and where they land globally.
type rankSplit struct {
	ringIdx  []int          // local row indices routed via the ring (ascending)
	agIdx    []int          // local row indices routed via the all-gather
	ringPos  []int          // global positions of the ring rows, packed order
	agPos    []int          // global positions of the all-gather rows
	ringRuns []model.PosRun // contiguous runs of the packed ring block
}

// StrategyKV executes a per-document exchange Plan over a CP group: ring
// documents circulate as packed K/V blocks through pre-posted nonblocking
// handles (each hop's transfer hides behind the previous block's streamed
// attention compute), all-gather documents move in one grouped collective.
// It implements model.KVStreamer, so the attention layer can consume blocks
// as they arrive; GatherKV degrades to the same circulation without the
// callback. The pure plans recover the pure strategies: the all-false Plan is
// the paper's all-gather CP (§4), the all-true Plan classic overlap-hidden
// ring CP (§7.2's comparator).
//
// Backward reduction is one deterministic all-reduce + local selection for
// every plan — strategies differ only in the forward gather, so dK/dV are
// bitwise identical across strategies by construction.
type StrategyKV struct {
	Layout  Layout
	Plan    Plan
	Group   *comm.Group
	World   *comm.World
	Rank    int // global rank
	TagBase int // disjoint per-instance tag namespace (RingTagBase)

	splits []rankSplit
	calls  int // exchange counter: advances identically on every CP rank
}

// NewStrategyKV precomputes the per-rank routing of plan over layout.
func NewStrategyKV(layout Layout, plan Plan, group *comm.Group, world *comm.World, globalRank, tagBase int) *StrategyKV {
	n := group.Size()
	splits := make([]rankSplit, n)
	for lr := 0; lr < n; lr++ {
		pos := layout.LocalPositions(lr)
		ringIdx, agIdx := plan.Split(pos)
		sp := rankSplit{ringIdx: ringIdx, agIdx: agIdx}
		sp.ringPos = make([]int, len(ringIdx))
		for i, idx := range ringIdx {
			sp.ringPos[i] = pos[idx]
		}
		sp.agPos = make([]int, len(agIdx))
		for i, idx := range agIdx {
			sp.agPos[i] = pos[idx]
		}
		sp.ringRuns = posRuns(sp.ringPos)
		splits[lr] = sp
	}
	return &StrategyKV{
		Layout: layout, Plan: plan, Group: group, World: world,
		Rank: globalRank, TagBase: tagBase, splits: splits,
	}
}

// posRuns decomposes ascending global positions into maximal contiguous
// runs; Off indexes the packed block the positions were copied into.
func posRuns(pos []int) []model.PosRun {
	var runs []model.PosRun
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		runs = append(runs, model.PosRun{Start: pos[i], Rows: j - i, Off: i})
		i = j
	}
	return runs
}

// packRows copies the idx-selected rows of t into a fresh packed tensor.
func packRows(t *tensor.Tensor, idx []int) *tensor.Tensor {
	out := tensor.GetUninit(len(idx), t.Cols())
	for i, r := range idx {
		copy(out.Row(i), t.Row(r))
	}
	return out
}

// tag derives the message tag of (exchange call, ring step, tensor) inside
// this instance's namespace. All CP ranks issue exchanges in the same layer
// order (SPMD), so call counters — and therefore tags — agree everywhere.
func (kv *StrategyKV) tag(call, step, which int) int {
	return kv.TagBase + (call*maxRingSteps+step)*2 + which
}

// SeqLen implements model.KVStreamer.
func (kv *StrategyKV) SeqLen() int { return kv.Layout.Seq }

// GatherKV implements model.KVComm: the same exchange, no streaming.
func (kv *StrategyKV) GatherKV(k, v *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	return kv.StreamKV(k, v, nil)
}

// StreamKV implements model.KVStreamer. Ring receives for every step are
// pre-posted before anything else and each received block is relayed onward
// *before* its attention compute runs, so step t+1's transfer proceeds while
// every rank is busy with step t — the overlap schedule. The all-gather
// documents (if any) move in one grouped collective and are emitted as a
// single ready block. onBlock may be nil (plain gather).
func (kv *StrategyKV) StreamKV(k, v *tensor.Tensor, onBlock func(kBlk, vBlk *tensor.Tensor, runs []model.PosRun)) (*tensor.Tensor, *tensor.Tensor) {
	n := kv.Group.Size()
	lr := kv.Group.LocalRank(kv.Rank)
	seq := kv.Layout.Seq
	cols := k.Cols()
	call := kv.calls
	kv.calls++

	// The rank's own ring rows are copied into place up front; its own
	// all-gather rows arrive with the gathered block like everyone else's.
	sp := &kv.splits[lr]
	fullK := tensor.GetUninit(seq, cols)
	fullV := tensor.GetUninit(seq, cols)
	for i, idx := range sp.ringIdx {
		p := sp.ringPos[i]
		copy(fullK.Row(p), k.Row(idx))
		copy(fullV.Row(p), v.Row(idx))
	}

	ring := kv.Plan.HasRing() && n > 1
	var recvK, recvV []*comm.Handle
	var sendH []*comm.Handle
	var kRing, vRing *tensor.Tensor
	next := kv.Group.GlobalRank((lr + 1) % n)
	prev := kv.Group.GlobalRank((lr - 1 + n) % n)
	if ring {
		recvK = make([]*comm.Handle, n-1)
		recvV = make([]*comm.Handle, n-1)
		for t := 0; t < n-1; t++ {
			recvK[t] = kv.World.IRecvLabeled(kv.Rank, prev, kv.tag(call, t, 0), RingLabel)
			recvV[t] = kv.World.IRecvLabeled(kv.Rank, prev, kv.tag(call, t, 1), RingLabel)
		}
		kRing = packRows(k, sp.ringIdx)
		vRing = packRows(v, sp.ringIdx)
		sendH = append(sendH,
			kv.World.ISendLabeled(kv.Rank, next, kv.tag(call, 0, 0), kRing, RingLabel),
			kv.World.ISendLabeled(kv.Rank, next, kv.tag(call, 0, 1), vRing, RingLabel))
	}

	if kv.Plan.HasAllGather() {
		var gk, gv *tensor.Tensor
		if len(sp.agIdx) == k.Rows() {
			// Every local row goes by all-gather: no packing copy.
			gk = kv.Group.AllGather(kv.Rank, k)
			gv = kv.Group.AllGather(kv.Rank, v)
		} else {
			kAG := packRows(k, sp.agIdx)
			vAG := packRows(v, sp.agIdx)
			gk = kv.Group.AllGather(kv.Rank, kAG)
			gv = kv.Group.AllGather(kv.Rank, vAG)
			tensor.Put(kAG, vAG)
		}
		off := 0
		for r := 0; r < n; r++ {
			for _, p := range kv.splits[r].agPos {
				copy(fullK.Row(p), gk.Row(off))
				copy(fullV.Row(p), gv.Row(off))
				off++
			}
		}
		tensor.Put(gk, gv)
		if onBlock != nil {
			var runs []model.PosRun
			for d, isRing := range kv.Plan.Ring {
				if isRing {
					continue
				}
				start := kv.Plan.DocStarts[d]
				runs = append(runs, model.PosRun{Start: start, Rows: kv.Plan.DocEnd(d) - start, Off: start})
			}
			onBlock(fullK, fullV, runs)
		}
	}

	if ring {
		if onBlock != nil && len(sp.ringRuns) > 0 {
			onBlock(kRing, vRing, sp.ringRuns)
		}
		for t := 0; t < n-1; t++ {
			kBlk := recvK[t].Wait()
			vBlk := recvV[t].Wait()
			if t < n-2 {
				sendH = append(sendH,
					kv.World.ISendLabeled(kv.Rank, next, kv.tag(call, t+1, 0), kBlk, RingLabel),
					kv.World.ISendLabeled(kv.Rank, next, kv.tag(call, t+1, 1), vBlk, RingLabel))
			}
			osp := &kv.splits[(lr-t-1+n)%n]
			for i, p := range osp.ringPos {
				copy(fullK.Row(p), kBlk.Row(i))
				copy(fullV.Row(p), vBlk.Row(i))
			}
			if onBlock != nil && len(osp.ringRuns) > 0 {
				onBlock(kBlk, vBlk, osp.ringRuns)
			}
			tensor.Put(kBlk, vBlk)
		}
		tensor.Put(kRing, vRing)
		for _, h := range sendH {
			h.Wait()
		}
	}
	return fullK, fullV
}

// ReduceKVGrad implements model.KVComm: deterministic all-reduce of the
// full-sequence gradients, then local row selection (numerically identical
// to a permuted reduce-scatter; the cost model accounts for the
// reduce-scatter volume). The cross-rank sum order — and therefore every
// dK/dV bit — never depends on the forward strategy.
func (kv *StrategyKV) ReduceKVGrad(dK, dV *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	rk := kv.Group.AllReduce(kv.Rank, dK)
	rv := kv.Group.AllReduce(kv.Rank, dV)
	pos := kv.Layout.LocalPositions(kv.Group.LocalRank(kv.Rank))
	localDK := packRows(rk, pos)
	localDV := packRows(rv, pos)
	tensor.Put(rk, rv)
	return localDK, localDV
}

// StrategyEnv builds the model environment for one CP rank executing plan
// over layout: the full-sequence mask (each rank computes its own mask from
// the entire sequence, per §4 "CP ranks"), this rank's global positions, and
// the StrategyKV hook.
func StrategyEnv(layout Layout, plan Plan, mask attention.Mask, group *comm.Group, world *comm.World, globalRank, tagBase int) *model.Env {
	return &model.Env{
		Mask: mask,
		QPos: layout.LocalPositions(group.LocalRank(globalRank)),
		KV:   NewStrategyKV(layout, plan, group, world, globalRank, tagBase),
	}
}
