package main

import (
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"llama4d/internal/model"
	"llama4d/internal/planner"
	"llama4d/internal/tensor"
)

// planTailP is the search-time percentile reported as cpu_ms_tail.
// Every search does identical work, so the upper tail measures only host
// jitter; p75 needs 40 searches for ten beyond it, which a 20-second run
// holds, where p90 would need 100.
const planTailP = 75.0

// planRequest is the plan workload's input: Llama 3 8B at 8K context on
// two 8-GPU hosts under a 24 GiB budget, so the memory prune fires. The
// seed perturbs the cost model's link bandwidths by up to ±5%: the search
// enumerates and simulates the same space, and may rank it differently.
func planRequest(seed int64) planner.Request {
	r := planner.Production405B(8192)
	r.Model = model.Llama3_8B()
	r.NGPUs = 16
	r.GlobalTokens = 64 << 10
	r.HBMBudgetGiB = 24
	f := 0.95 + 0.1*rand.New(rand.NewSource(seed)).Float64()
	r.Cost.Cluster.Net.NVLinkGBs *= f
	r.Cost.Cluster.Net.RoCEGBs *= f
	return r
}

// checkSearch validates one search: the enumeration accounting balances,
// the winner is what Evaluate gives for its candidate and lies inside the
// tie band of the fastest plan, and the ranking equals the first search's.
func checkSearch(out *outcome, r planner.Request, plans, first []planner.Plan, st planner.Stats) {
	out.attempted++
	if st.Enumerated != st.PrunedShape+st.PrunedMemory+st.Feasible || len(plans) != st.Feasible || len(plans) == 0 {
		out.fail("search accounting: %+v with %d plans", st, len(plans))
		return
	}
	best := plans[0].StepTime
	for _, p := range plans {
		best = min(best, p.StepTime)
	}
	if plans[0].StepTime > best*(1+r.Band()) {
		out.fail("winner step time %g outside the tie band of the fastest %g", plans[0].StepTime, best)
	}
	if p, err := r.Evaluate(plans[0].Candidate()); err != nil || !reflect.DeepEqual(*p, plans[0]) {
		out.fail("winner does not re-evaluate to itself: %v", err)
	}
	if first != nil && !reflect.DeepEqual(plans, first) {
		out.fail("ranking differs from the first search")
	}
}

func runPlan(o options) *outcome {
	out := &outcome{}
	r := planRequest(o.seed)
	// Set-up: the first search (warm-up), repeated.
	var first []planner.Plan
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		plans, st := planner.SearchWithStats(r)
		wall, cpu := sw.elapsed()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
		checkSearch(out, r, plans, first, st)
		first = plans
	}
	out.setE2E("setup_s", "s", median(setups))
	out.note("setup: %d warm-up searches, on-CPU %v s, wall %v s", setupRepeats, rounded(setups), rounded(setupWalls))

	// search returns one search's wall and on-CPU time in ms.
	search := func() (float64, float64, planner.Stats) {
		sw := startWatch()
		plans, st := planner.SearchWithStats(r)
		wall, cpu := sw.elapsed()
		checkSearch(out, r, plans, first, st)
		return ms(wall), ms(cpu), st
	}
	segment := o.seconds
	if o.trace {
		segment = o.seconds / 2
	}
	var searchMS, searchWallMS []float64
	var st planner.Stats
	start := time.Now()
	for time.Since(start).Seconds() < segment || len(searchMS) == 0 || (!o.trace && !resolves(len(searchMS), planTailP)) {
		var wall, cpu float64
		wall, cpu, st = search()
		searchMS, searchWallMS = append(searchMS, cpu), append(searchWallMS, wall)
	}
	cands := float64(st.Enumerated)
	cpu, wall := median(searchMS), median(searchWallMS)
	out.setTimings(timing{searchMS, cpu, cands / (cpu / 1e3)}, timing{searchWallMS, wall, cands / (wall / 1e3)}, planTailP)
	out.note("searches: %d (%d candidates each, winner %v); an operation is a search, tail p%g", len(searchMS), st.Enumerated, first[0], float64(planTailP))
	if !o.trace {
		return out
	}

	// Traced searches: a span per search plus the runtime and tensor
	// counters around it (the planner exposes no finer hook).
	t := newTracer(0)
	out.tracer = t
	var tracedMS []float64
	var rt []runtimeStats
	var flops float64
	start = time.Now()
	for i := 0; len(tracedMS) == 0 || time.Since(start).Seconds() < o.seconds/2; i++ {
		m0, f0 := readRuntime(), tensor.FLOPCount()
		s0 := t.now()
		_, d, _ := search()
		t.harness(laneMain).add(span{Kind: kindStep, Name: "planner.search", ID: int64(i), Start: s0, End: t.now()})
		m1 := readRuntime()
		rt = append(rt, runtimeStats{m1.allocMB - m0.allocMB, m1.gcCount - m0.gcCount, m1.gcPauseMS - m0.gcPauseMS})
		flops += float64(tensor.FLOPCount() - f0)
		tracedMS = append(tracedMS, d)
	}
	n := float64(len(tracedMS))
	var alloc, gcs, pause float64
	for _, x := range rt {
		alloc, gcs, pause = alloc+x.allocMB, gcs+x.gcCount, pause+x.gcPauseMS
	}
	out.setLayer("planner.enumerated", "count", float64(st.Enumerated))
	out.setLayer("planner.pruned_shape", "count", float64(st.PrunedShape))
	out.setLayer("planner.pruned_mem", "count", float64(st.PrunedMemory))
	out.setLayer("planner.feasible", "count", float64(st.Feasible))
	out.setLayer("planner.us_per_candidate", "us", 1e3*median(tracedMS)/float64(st.Enumerated))
	out.setLayer("runtime.alloc_mb", "MB", alloc/n)
	out.setLayer("runtime.gc_count", "count", gcs/n)
	out.setLayer("runtime.gc_pause_ms", "ms", pause/n)
	out.setLayer("tensor.flops", "count", flops/n)
	out.setLayer("trace_overhead_frac", "frac", median(tracedMS)/median(searchMS)-1)
	return out
}
