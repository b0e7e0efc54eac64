package xval

import (
	"reflect"
	"testing"

	"llama4d/internal/core"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/pp"
)

// TestPredictConfigMatchesLiveCluster pins the cluster-free prediction path
// against the live-cluster one: for every sweep configuration and both step
// regimes, PredictConfig must reproduce Predict byte-for-byte — same comm
// maps, same overlap subsets, same tier splits, same FLOP total. The two
// paths share predictRank, so this test guards the view derivation
// (configRankView, cacheLabel, ConfigShardLens) that the planner relies on
// without ever constructing ranks.
func TestPredictConfigMatchesLiveCluster(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			cl, _ := runMeasuredSteps(t, sc)
			for _, steady := range []bool{false, true} {
				live := Predict(cl, steady)
				free := PredictConfig(cfg, steady)
				if !reflect.DeepEqual(live, free) {
					t.Errorf("steady=%v: PredictConfig diverges from Predict", steady)
					for r := range live.Comm {
						if !reflect.DeepEqual(live.Comm[r], free.Comm[r]) {
							t.Errorf("rank %d comm: live %+v, config %+v", r, live.Comm[r], free.Comm[r])
						}
						if !reflect.DeepEqual(live.Overlapped[r], free.Overlapped[r]) {
							t.Errorf("rank %d overlapped: live %+v, config %+v", r, live.Overlapped[r], free.Overlapped[r])
						}
						if live.IntraBytes[r] != free.IntraBytes[r] || live.InterBytes[r] != free.InterBytes[r] {
							t.Errorf("rank %d tiers: live (%d,%d), config (%d,%d)", r,
								live.IntraBytes[r], live.InterBytes[r], free.IntraBytes[r], free.InterBytes[r])
						}
					}
					if live.FLOPs != free.FLOPs {
						t.Errorf("FLOPs: live %d, config %d", live.FLOPs, free.FLOPs)
					}
				}
				for _, r := range cl.Ranks {
					rp := PredictRank(cfg, r.ID, steady)
					if !reflect.DeepEqual(rp.Comm, live.Comm[r.ID]) {
						t.Errorf("steady=%v PredictRank(%d) comm diverges: %+v vs %+v",
							steady, r.ID, rp.Comm, live.Comm[r.ID])
					}
				}
			}
		})
	}
}

// TestConfigShardLensMatchesLiveShards asserts the closed-form FSDP unit
// shard lengths equal what the constructed cluster actually allocated, for
// every rank of every sweep case.
func TestConfigShardLensMatchesLiveShards(t *testing.T) {
	for _, sc := range sweepCases() {
		t.Run(sc.name, func(t *testing.T) {
			cl, _ := runMeasuredSteps(t, sc)
			cfg := cl.Cfg
			counts := pp.StageLayerCounts(cfg.Model.NLayers, cl.Sched.Stages(), cfg.Balanced)
			for _, r := range cl.Ranks {
				want := r.Shard.ShardLens()
				got := ConfigShardLens(cfg, cl.Sched, counts, r.Coord.PP)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d (pp=%d): config shard lens %v, live %v",
						r.ID, r.Coord.PP, got, want)
				}
			}
		})
	}
}

// TestPredictRankAllocsIndependentOfNMB pins the per-stage tally: a rank's
// prediction issues each (stage, direction) once, scaled by its
// micro-batch count, so 4 and 64 micro-batches allocate the same number of
// objects.
func TestPredictRankAllocsIndependentOfNMB(t *testing.T) {
	allocs := func(nmb int) float64 {
		cfg := core.Config{
			Model: sweepModel(), Topo: core.Topology{TP: 2, CP: 2, PP: 2, DP: 2},
			V: 2, NMB: nmb, NC: 2, GBS: 2 * nmb, Seq: 16,
			ZeRO: fsdp.ZeRO2, Recompute: model.RecomputeSelective, HostSize: 4,
			Overlap: core.OverlapConfig{Params: 2, P2P: 2},
		}
		return testing.AllocsPerRun(5, func() { PredictRank(cfg, 5, true) })
	}
	if a4, a64 := allocs(4), allocs(64); a4 != a64 {
		t.Fatalf("PredictRank allocates %v objects at NMB 4, %v at NMB 64", a4, a64)
	}
}

// TestRoleOfAnyOrder pins the host count of unordered groups: the one-pass
// count of ascending groups and the set count of any other order agree,
// and leadership follows local-rank order.
func TestRoleOfAnyOrder(t *testing.T) {
	asc := []int{0, 1, 2, 3, 4, 5, 6, 7}
	desc := []int{7, 6, 5, 4, 3, 2, 1, 0}
	for _, g := range asc {
		a, d := roleOf(asc, g, 3), roleOf(desc, g, 3)
		if a.n != 8 || a.H != 3 || d.H != 3 || a.m != d.m || !a.tiered || !d.tiered {
			t.Fatalf("rank %d: ascending %+v, descending %+v", g, a, d)
		}
		if a.leader != (g%3 == 0) || d.leader != (g%3 == 2 || g == 7) {
			t.Fatalf("rank %d: leaders ascending %v, descending %v", g, a.leader, d.leader)
		}
	}
}
