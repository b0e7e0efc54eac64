package main

import "fmt"

// layerUnits lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; a layer the workload does not
// exercise reads 0 (README.md names, per metric, the workload where it
// should move and the one where it should not).
var layerUnits = func() [][2]string {
	ls := [][2]string{
		{"core.outside_ops_ms", "ms"}, {"core.unattributed_frac", "frac"},
		{"data.batch_ms", "ms"},
		{"model.embed_ms", "ms"}, {"model.block_fwd_ms", "ms"}, {"model.block_bwd_ms", "ms"},
		{"model.block_fwd_self_ms", "ms"}, {"model.block_bwd_self_ms", "ms"}, {"model.head_ms", "ms"},
		{"tensor.flops", "count"}, {"tensor.eff_flops", "count"}, {"tensor.eff_gflops_per_s", "GFLOP/s"},
		{"tensor.pool_gets", "count"}, {"tensor.pool_hit_frac", "frac"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_count", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"runtime.peak_rss_mb", "MB"},
		{"attention.calls", "count"}, {"attention.allowed_pair_frac", "frac"},
		{"attention.empty_tile_frac", "frac"}, {"attention.eff_flop_frac", "frac"},
	}
	for _, g := range commGroups {
		ls = append(ls, [2]string{"comm." + g + ".bytes", "B"}, [2]string{"comm." + g + ".msgs", "count"},
			[2]string{"comm." + g + ".blocking_ms", "ms"}, [2]string{"comm." + g + ".exposed_ms", "ms"},
			[2]string{"comm." + g + ".hidden_ms", "ms"})
	}
	return append(ls,
		[2]string{"comm.intra_bytes", "B"}, [2]string{"comm.inter_bytes", "B"},
		[2]string{"pp.p2p_wait_ms", "ms"}, [2]string{"pp.idle_frac", "frac"},
		[2]string{"pp.peak_live_ctx", "count"}, [2]string{"pp.peak_act_mb", "MB"},
		[2]string{"cp.ring_doc_frac", "frac"},
		[2]string{"balance.plan_shards_ms", "ms"}, [2]string{"balance.imbalance", "ratio"},
		[2]string{"serve.prefill_ms", "ms"}, [2]string{"serve.prefill_tokens", "count"},
		[2]string{"serve.decode_ms", "ms"}, [2]string{"serve.decode_batch", "count"},
		[2]string{"serve.sched_ms", "ms"}, [2]string{"serve.preemptions", "count"},
		[2]string{"serve.replayed_tokens", "count"}, [2]string{"serve.useful_token_frac", "frac"},
		[2]string{"serve.kv_page_gets", "count"},
		[2]string{"serve.ttft_ms_p50", "ms"}, [2]string{"serve.ttft_ms_tail", "ms"},
		[2]string{"planner.enumerated", "count"}, [2]string{"planner.pruned_shape", "count"},
		[2]string{"planner.pruned_mem", "count"}, [2]string{"planner.feasible", "count"},
		[2]string{"planner.us_per_candidate", "us"},
		[2]string{"wall.throughput_per_s", "1/s"}, [2]string{"wall.ms_p50", "ms"},
		[2]string{"wall.ms_tail", "ms"}, [2]string{"wall.cpu_per_wall", "ratio"},
		[2]string{"trace_overhead_frac", "frac"},
	)
}()

// fillLayers returns the traced run's per-layer metrics, completed with 0
// for every layer the workload does not exercise. A metric set under a
// name or unit outside layerUnits is a harness bug and fails the run.
func fillLayers(out *outcome) map[string]metric {
	known := map[string]string{}
	res := map[string]metric{}
	for _, lu := range layerUnits {
		known[lu[0]] = lu[1]
		res[lu[0]] = metric{0, lu[1]}
	}
	for name, m := range out.layers {
		if unit, ok := known[name]; !ok || unit != m.Unit {
			out.fail("%s", fmt.Sprintf("per-layer metric %s (%s) is not in the metric table", name, m.Unit))
			continue
		}
		res[name] = m
	}
	return res
}
