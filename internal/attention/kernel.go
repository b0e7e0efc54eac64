package attention

import (
	"fmt"
	"math"

	"llama4d/internal/tensor"
)

// Output holds the results of an attention forward pass for one head.
type Output struct {
	O *tensor.Tensor // [sq, d] attention output
	P *tensor.Tensor // [sq, sk] post-softmax probabilities (saved for backward)
}

// Forward computes masked scaled-dot-product attention. qPos gives the
// global position of each query row; keys occupy global positions
// kOff..kOff+sk-1.
//
// By default the mask-structured blocked engine runs (blocked.go): score
// tiles with no allowed pair are skipped in every sweep and fully-allowed
// tiles run without per-element mask checks — bitwise identical to the dense
// reference path (DenseForward), which SetBlocked(false) selects. The
// mask/softmax sweep is row-parallel above the tensor package's FLOP
// threshold: each query row is masked and normalised independently, so the
// split is bitwise invisible (the §6.2 determinism contract).
func Forward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	return ForwardRecorded(q, k, v, m, qPos, kOff, nil)
}

// ForwardRecorded is Forward with a per-rank census recorder: when the
// blocked engine runs, the call's tile grid is folded into rec (2 sweeps —
// scores and P·V). A nil rec records nothing; the dense path never records,
// matching the global Stats counters.
func ForwardRecorded(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) *Output {
	checkShapes(q, k, v, qPos)
	if blockedEnabled {
		return blockedForward(q, k, v, m, qPos, kOff, rec)
	}
	return denseForward(q, k, v, m, qPos, kOff)
}

// DenseForward is the dense reference kernel: the full score matrix is
// materialised and swept with per-row masking regardless of mask structure.
// It is the oracle the blocked engine is property-tested against and the
// baseline the attention benchmarks compare with.
func DenseForward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	checkShapes(q, k, v, qPos)
	return denseForward(q, k, v, m, qPos, kOff)
}

func checkShapes(q, k, v *tensor.Tensor, qPos []int) {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	if len(qPos) != sq {
		panic(fmt.Sprintf("attention: %d qPos for %d query rows", len(qPos), sq))
	}
	if k.Cols() != d || v.Rows() != sk {
		panic(fmt.Sprintf("attention: shape mismatch q%v k%v v%v", q.Shape, k.Shape, v.Shape))
	}
}

func denseForward(q, k, v *tensor.Tensor, m Mask, qPos []int, kOff int) *Output {
	sq, d := q.Rows(), q.Cols()
	sk := k.Rows()
	scale := float32(1 / math.Sqrt(float64(d)))
	s := tensor.MatMulT(q, k)
	if workers := tensor.Workers(sq, sq*sk*d); workers <= 1 {
		maskedSoftmaxRows(s, m, qPos, kOff, scale, 0, sq)
	} else {
		tensor.ParallelRows(sq, workers, func(lo, hi int) {
			maskedSoftmaxRows(s, m, qPos, kOff, scale, lo, hi)
		})
	}
	return &Output{O: tensor.MatMul(s, v), P: s}
}

// maskedSoftmaxRows scales and softmaxes score rows [lo, hi) in place,
// sending disallowed positions to -Inf. Each worker hoists the mask into
// one reusable per-row []bool instead of an Allowed call per element.
func maskedSoftmaxRows(s *tensor.Tensor, m Mask, qPos []int, kOff int, scale float32, lo, hi int) {
	sk := s.Cols()
	allowed := make([]bool, sk)
	neg := float32(math.Inf(-1))
	for i := lo; i < hi; i++ {
		RowMask(m, qPos[i], kOff, allowed)
		row := s.Row(i)
		for j := 0; j < sk; j++ {
			if allowed[j] {
				row[j] *= scale
			} else {
				row[j] = neg
			}
		}
		tensor.SoftmaxRow(row)
	}
}

// Backward computes gradients for Forward given the saved probabilities.
// Returns dQ, dK, dV. The mask carries no new information for correctness —
// masked entries of P are exactly zero, which zeroes their contribution to
// every gradient — but it lets the blocked engine classify and skip empty
// tiles of the dP/dS sweeps instead of discovering the zeros value by value,
// and keeps the measured skipped-tile volume equal to the closed-form
// prediction (metrics/xval) rather than dependent on float underflow.
func Backward(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int) (dQ, dK, dV *tensor.Tensor) {
	return BackwardRecorded(q, k, v, p, dO, m, qPos, kOff, nil)
}

// BackwardRecorded is Backward with a per-rank census recorder: when the
// blocked engine runs, the call's tile grid is folded into rec (4 sweeps —
// dV, dP, dQ, dK). A nil rec records nothing.
func BackwardRecorded(q, k, v, p, dO *tensor.Tensor, m Mask, qPos []int, kOff int, rec *Recorder) (dQ, dK, dV *tensor.Tensor) {
	if blockedEnabled {
		return blockedBackward(q, k, v, p, dO, m, qPos, kOff, rec)
	}
	return DenseBackward(q, k, v, p, dO)
}

// DenseBackward is the dense reference backward pass: every gradient product
// sweeps the full score plane, relying only on the exact zeros of masked
// probabilities. Oracle and benchmark baseline for the blocked engine.
func DenseBackward(q, k, v, p, dO *tensor.Tensor) (dQ, dK, dV *tensor.Tensor) {
	d := q.Cols()
	scale := float32(1 / math.Sqrt(float64(d)))

	dV = tensor.TMatMul(p, dO)  // [sk, d]
	dP := tensor.MatMulT(dO, v) // [sq, sk]
	// dS = P ∘ (dP − rowsum(dP ∘ P))
	sq, sk := p.Rows(), p.Cols()
	dS := tensor.GetUninit(sq, sk)
	if workers := tensor.Workers(sq, 2*sq*sk); workers <= 1 {
		softmaxBackwardRows(dS, p, dP, 0, sq)
	} else {
		tensor.ParallelRows(sq, workers, func(lo, hi int) {
			softmaxBackwardRows(dS, p, dP, lo, hi)
		})
	}
	tensor.Put(dP)
	dQ = tensor.MatMul(dS, k).Scale(scale)
	dK = tensor.TMatMul(dS, q).Scale(scale)
	tensor.Put(dS)
	return dQ, dK, dV
}

// softmaxBackwardRows writes dS = P ∘ (dP − rowsum(dP ∘ P)) for rows
// [lo, hi). Row-independent, so any ParallelRows split is bitwise invisible.
func softmaxBackwardRows(dS, p, dP *tensor.Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		pi, dpi, dsi := p.Row(i), dP.Row(i), dS.Row(i)
		var dot float32
		for j := range pi {
			dot += pi[j] * dpi[j]
		}
		for j := range pi {
			dsi[j] = pi[j] * (dpi[j] - dot)
		}
	}
}
