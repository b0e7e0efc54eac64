package attention

import (
	"runtime"
	"testing"

	"llama4d/internal/tensor"
)

// oddMask is a Mask the RowMask type switch does not know, forcing the
// per-element fallback path.
type oddMask struct{}

func (oddMask) Allowed(q, k int) bool { return (q+k)%2 == 0 }

// TestRowMaskMatchesAllowed checks every RowMask fast path against the
// per-element Allowed oracle, including negative query positions (ring
// attention probes rows that own no keys) and nonzero key offsets.
func TestRowMaskMatchesAllowed(t *testing.T) {
	doc := Document{DocID: DocIDsFromLengths([]int{3, 5, 2, 6}, 16)}
	masks := map[string]Mask{
		"full":     Full{},
		"causal":   Causal{},
		"document": doc,
		"custom":   oddMask{},
	}
	for name, m := range masks {
		for _, kOff := range []int{0, 3, 8, 15} {
			for q := -2; q < 16; q++ {
				if name == "document" && q < 0 {
					// Document.Allowed would index DocID[q]; RowMask's guard
					// handles the all-masked row without touching DocID.
					sk := 16 - kOff
					dst := make([]bool, sk)
					for j := range dst {
						dst[j] = true // ensure RowMask actually clears
					}
					RowMask(m, q, kOff, dst)
					for j, v := range dst {
						if v {
							t.Fatalf("%s q=%d kOff=%d: key %d allowed for negative query", name, q, kOff, j)
						}
					}
					continue
				}
				sk := 16 - kOff
				dst := make([]bool, sk)
				RowMask(m, q, kOff, dst)
				for j := 0; j < sk; j++ {
					if want := m.Allowed(q, kOff+j); dst[j] != want {
						t.Fatalf("%s q=%d kOff=%d j=%d: RowMask=%v Allowed=%v", name, q, kOff, j, dst[j], want)
					}
				}
			}
		}
	}
}

// TestForwardRowSliceBitwise proves the row-parallel Forward split never
// changes bits: with GOMAXPROCS raised and a shape above the FLOP threshold
// the full call runs parallel, while per-slice calls on a few query rows run
// serial — and every row must agree bit for bit, because rows are computed
// independently of the chunking.
func TestForwardRowSliceBitwise(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const sq, sk, d = 320, 256, 64 // 320·256·64 > 2^22: parallel dispatch
	q, k, v := randQKV(101, sq, sk, d)
	docs := Document{DocID: DocIDsFromLengths([]int{100, 77, 200}, 512)}
	for name, m := range map[string]Mask{"causal": Causal{}, "document": docs} {
		qPos := Iota(sq)
		full := Forward(q, k, v, m, qPos, 0)
		for lo := 0; lo < sq; lo += 63 { // uneven slices straddle chunk bounds
			hi := lo + 63
			if hi > sq {
				hi = sq
			}
			part := Forward(q.RowSlice(lo, hi), k, v, m, qPos[lo:hi], 0)
			if !tensor.BitwiseEqual(part.O, full.O.RowSlice(lo, hi)) {
				t.Fatalf("%s rows [%d,%d): parallel O differs from serial slice", name, lo, hi)
			}
			if !tensor.BitwiseEqual(part.P, full.P.RowSlice(lo, hi)) {
				t.Fatalf("%s rows [%d,%d): parallel P differs from serial slice", name, lo, hi)
			}
		}
	}
}

// TestStreamedForwardParallelBitwise checks the streamed block path
// and the blocked Forward engine stay deterministic when their inner kernels
// dispatch to goroutines: the same inputs at serial (GOMAXPROCS=1) and
// parallel (GOMAXPROCS=4) settings must produce identical bits for every
// block size.
func TestStreamedForwardParallelBitwise(t *testing.T) {
	const sq, sk, d = 320, 320, 64
	q, k, v := randQKV(606, sq, sk, d)
	m := Document{DocID: DocIDsFromLengths([]int{130, 90, 100}, sk)}
	qPos := Iota(sq)

	prev := runtime.GOMAXPROCS(1)
	serial := streamedForward(q, k, v, m, qPos, 0)
	serialBlocked := streamedForward(q, k, v, m, qPos, 80)
	serialFwd := Forward(q, k, v, m, qPos, 0)
	runtime.GOMAXPROCS(4)
	parallel := streamedForward(q, k, v, m, qPos, 0)
	parallelBlocked := streamedForward(q, k, v, m, qPos, 80)
	parallelFwd := Forward(q, k, v, m, qPos, 0)
	runtime.GOMAXPROCS(prev)

	if !tensor.BitwiseEqual(serial, parallel) {
		t.Fatal("streamedForward (single block) differs across GOMAXPROCS")
	}
	if !tensor.BitwiseEqual(serialBlocked, parallelBlocked) {
		t.Fatal("streamedForward (blocked) differs across GOMAXPROCS")
	}
	if !tensor.BitwiseEqual(serialFwd.O, parallelFwd.O) || !tensor.BitwiseEqual(serialFwd.P, parallelFwd.P) {
		t.Fatal("blocked Forward differs across GOMAXPROCS")
	}
}
