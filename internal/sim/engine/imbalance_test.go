package engine

import (
	"math"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/cp"
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// Regression tests for DocMaskImbalance degenerate windows: empty worlds and
// zero-step runs used to index empty slices or report NaN ratios.
func TestDocMaskImbalanceDegenerate(t *testing.T) {
	m := cost.Default()
	cfg := model.Llama3_8B()
	cases := []struct {
		name                   string
		nGroups, cpSize, steps int
	}{
		{"zero groups", 0, 4, 3},
		{"zero ranks", 4, 0, 3},
		{"zero steps (no documents drawn)", 4, 4, 0},
		{"everything zero", 0, 0, 0},
	}
	for _, tc := range cases {
		rep := DocMaskImbalance(m, cfg, 8, 65536, tc.cpSize, 4096, tc.nGroups, tc.steps, 1)
		if len(rep.ComputeTimes) != 0 || len(rep.AttnTimes) != 0 {
			t.Fatalf("%s: non-empty time distributions", tc.name)
		}
		for name, v := range map[string]float64{
			"SlowFastRatio":     rep.SlowFastRatio,
			"AttnSlowFastRatio": rep.AttnSlowFastRatio,
			"CPExposedFrac":     rep.CPExposedFrac,
			"WaitFracOfExposed": rep.WaitFracOfExposed,
			"OverlapUpperBound": rep.OverlapUpperBound,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: %s = %v", tc.name, name, v)
			}
		}
		if rep.SlowFastRatio != 1 || rep.AttnSlowFastRatio != 1 {
			t.Fatalf("%s: empty window should report perfect balance, got %v/%v",
				tc.name, rep.SlowFastRatio, rep.AttnSlowFastRatio)
		}
	}
}

// A single-rank CP group has no one to wait for: every skew metric collapses
// to perfect balance and all fractions stay finite.
func TestDocMaskImbalanceSingleRank(t *testing.T) {
	rep := DocMaskImbalance(cost.Default(), model.Llama3_8B(), 8, 65536, 1, 4096, 4, 2, 1)
	if len(rep.ComputeTimes) != 4 {
		t.Fatalf("expected 4 GPUs, got %d", len(rep.ComputeTimes))
	}
	if math.IsNaN(rep.WaitFracOfExposed) || math.IsNaN(rep.CPExposedFrac) || math.IsNaN(rep.OverlapUpperBound) {
		t.Fatalf("single-rank report carries NaN: %+v", rep)
	}
	if rep.AttnSlowFastRatio < 1 || math.IsInf(rep.AttnSlowFastRatio, 0) {
		t.Fatalf("AttnSlowFastRatio = %v", rep.AttnSlowFastRatio)
	}
}

func TestSlowFastRatioGuards(t *testing.T) {
	if r := slowFastRatio([]float64{0, 0, 0}); r != 1 {
		t.Fatalf("all-zero ratio %v, want 1", r)
	}
	if r := slowFastRatio([]float64{0, 2}); !math.IsInf(r, 1) {
		t.Fatalf("zero-fastest ratio %v, want +Inf", r)
	}
	if r := slowFastRatio([]float64{2, 4}); r != 2 {
		t.Fatalf("ratio %v, want 2", r)
	}
}

// ShardSkew agrees with the recorder arithmetic (balance.MaxMeanRatio over
// per-shard swept pairs) and shows the planner beating zigzag on a skewed
// document mix.
func TestShardSkewPlannedBeatsZigzag(t *testing.T) {
	pr, pc := attention.SetTiling(4, 4)
	defer attention.SetTiling(pr, pc)
	const seq, cpSize = 64, 4
	docIDs := attention.DocIDsFromLengths([]int{48, 4, 4, 4, 4}, seq)
	starts := attention.DocStarts(docIDs)
	zig := cp.Zigzag(seq, cpSize)
	zr := ShardSkew(zig.Pos, starts, seq)
	pl := ShardSkew(balance.PlanShards(starts, seq, cpSize), starts, seq)
	if pl >= zr {
		t.Fatalf("planned skew %.4f not below zigzag %.4f", pl, zr)
	}
	if pl < 1 {
		t.Fatalf("max/mean ratio below 1: %v", pl)
	}
}
