package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/balance"
	"llama4d/internal/core"
	"llama4d/internal/cp"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/metrics"
	"llama4d/internal/metrics/xval"
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// trainSpec is one training workload: the cluster configuration, the
// corpus, and how the run checks itself.
type trainSpec struct {
	cfg core.Config
	gen *data.Generator
	// cycle is the number of distinct batches a run steps through. At each
	// cycle boundary the cluster is restored to its initial checkpoint, so
	// step k of every cycle must reproduce the first cycle's loss bits.
	cycle int
	// tailP is the step-time percentile reported as cpu_ms_tail.
	tailP float64
	// exchangeOnly selects the comm cross-check: false compares every
	// rank's whole metered traffic with xval.Predict; true compares the
	// K/V exchange issued inside layers with xval.PredictCPPerRank.
	exchangeOnly bool
	// baseline compares the warm-up loss with a single-rank cluster.
	baseline bool
}

const (
	setupRepeats = 7
	// baselineTol is the loss tolerance core's 4D equivalence tests use.
	baselineTol = 1e-3
	// coverageTol bounds each rank's unattributed share of step wall time.
	coverageTol = 0.10
)

// pretrainSpec is Table 2's 8K pre-training shape scaled down: TP2 · PP2
// (interleaved, V=2) · DP4, ZeRO-3 with parameter prefetch and pre-posted
// P2P, hosts of 8 ranks so each DP group spans two hosts, and a document
// mask over short documents.
func pretrainSpec(seed int64) trainSpec {
	const seq = 128
	cfg := core.Config{
		Model: model.Config{Vocab: 256, Dim: 64, Hidden: 192, NHeads: 4, NKVHeads: 2,
			NLayers: 4, MaxSeq: seq, RopeBase: 10000},
		Topo: core.Topology{TP: 2, CP: 1, PP: 2, DP: 4},
		V:    2, NMB: 2, NC: 2,
		ZeRO:     fsdp.ZeRO3,
		HostSize: 8,
		Seq:      seq, GBS: 8, LR: 1e-3,
		UseDocMask: true,
		Seed:       seed,
		Overlap:    core.OverlapConfig{Params: 2, P2P: 2},
	}
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: seq, AvgDocLen: 24, Seed: seed}
	return trainSpec{cfg: cfg, gen: gen, cycle: 8, tailP: 90, baseline: true}
}

// longctxSpec is Table 2's 131K long-context shape scaled down: CP4 alone
// over a 2K-token mixed corpus, adaptive ring/all-gather K/V exchange with
// the cost model scaled so both routes carry documents, and the workload
// balancer as the shard planner.
func longctxSpec(seed int64) trainSpec {
	const seq = 2048
	cfg := core.Config{
		Model: model.Config{Vocab: 256, Dim: 32, Hidden: 64, NHeads: 2, NKVHeads: 1,
			NLayers: 1, MaxSeq: seq, RopeBase: 10000},
		Topo: core.Topology{TP: 1, CP: 4, PP: 1, DP: 1},
		V:    1, NMB: 1, NC: 1,
		ZeRO: fsdp.ZeRO1,
		Seq:  seq, GBS: 1, LR: 1e-3,
		UseDocMask: true,
		Seed:       seed,
		CPStrategy: cp.StrategyAdaptive,
		CPCost:     scaledCPCost(),
	}
	cfg.ShardPlanner = func(s *model.Sample, n int) [][]int {
		return balance.PlanShards(attention.DocStarts(s.DocIDs), seq, n)
	}
	gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: seq, AvgDocLen: 64, LongDocFrac: 0.1, Seed: seed}
	return trainSpec{cfg: cfg, gen: gen, cycle: 32, tailP: 90, exchangeOnly: true}
}

// scaledCPCost moves the adaptive strategy's ring/all-gather crossover to
// this workload's document lengths, the way BenchmarkCP and `llama4d cp`
// scale cost.Default: compute hides every transfer, the link is slow
// enough that all-gather bytes dominate, and the launch tax of the ring's
// n−1 extra kernel waves puts the crossover near 40-token documents, so
// both routes carry a share of the corpus's short documents.
func scaledCPCost() *cost.Model {
	m := cost.Default()
	m.AttnMFU = 1e-12
	m.KernelLaunchUs = 6400
	m.Cluster.Net.NVLinkGBs = 1e-4
	m.Cluster.Net.RoCEGBs = 1e-4
	m.Cluster.Net.NVLinkLatencyUs = 0
	m.Cluster.Net.RoCELatencyUs = 0
	return &m
}

func runPretrain(o options) *outcome { return runTrain(o, pretrainSpec(o.seed)) }
func runLongctx(o options) *outcome  { return runTrain(o, longctxSpec(o.seed)) }

// trainer drives one cluster through cycles of steps and checks each
// step's loss bits against the first cycle.
type trainer struct {
	sp   trainSpec
	out  *outcome
	cl   *core.Cluster
	init []byte   // initial full-state checkpoint
	ref  []uint64 // loss bits of each cycle step, from the first cycle
	have []bool   // ref[k] recorded
	next int64    // next step number (step k = next % cycle)
	dead bool     // a step failed: the world is gone
	src  data.Batcher
}

// rewind restores the initial checkpoint when the next step starts a
// cycle after the first. It runs outside every timed or traced window.
func (tr *trainer) rewind() bool {
	if tr.dead || tr.next == 0 || !tr.atBoundary() {
		return !tr.dead
	}
	if err := tr.cl.LoadFullState(bytes.NewReader(tr.init)); err != nil {
		tr.out.fail("restoring the initial state: %v", err)
		tr.dead = true
	}
	return !tr.dead
}

// step runs the next step (after rewind) and returns its wall and on-CPU
// time, or false once the cluster is unusable.
func (tr *trainer) step() (wall, cpu time.Duration, k int, ok bool) {
	if tr.dead {
		return 0, 0, 0, false
	}
	k = int(tr.next % int64(tr.sp.cycle))
	sw := startWatch()
	loss, err := tr.cl.TryStep(tr.src, int64(k))
	wall, cpu = sw.elapsed()
	tr.out.attempted++
	tr.next++
	if err != nil {
		tr.out.fail("step %d: %v", tr.next-1, err)
		tr.dead = true
		return 0, 0, 0, false
	}
	bits := math.Float64bits(loss)
	if !tr.have[k] {
		tr.ref[k], tr.have[k] = bits, true
	} else if tr.ref[k] != bits {
		tr.out.fail("step %d (cycle step %d): loss %v (bits %#x) != first cycle's bits %#x",
			tr.next-1, k, loss, bits, tr.ref[k])
	}
	return wall, cpu, k, true
}

// atBoundary reports whether the next step starts a new cycle.
func (tr *trainer) atBoundary() bool { return tr.next%int64(tr.sp.cycle) == 0 }

func runTrain(o options, sp trainSpec) *outcome {
	out := &outcome{}
	tr := &trainer{sp: sp, out: out, src: sp.gen,
		ref: make([]uint64, sp.cycle), have: make([]bool, sp.cycle)}

	// Set-up: build the cluster, checkpoint its initial state, and run the
	// warm-up step (step 0, excluded from timing). Repeated; the median is
	// setup_s, and every repeat must produce the same warm-up loss bits.
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		tr.cl = nil
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		cl, err := core.NewCluster(sp.cfg)
		if err != nil {
			out.fail("building the cluster: %v", err)
			return out
		}
		var buf bytes.Buffer
		if err := cl.SaveFullState(&buf); err != nil {
			out.fail("checkpointing the initial state: %v", err)
			return out
		}
		tr.cl, tr.init, tr.next = cl, buf.Bytes(), 0
		tr.have[0] = i > 0 // later repeats are checked against the first
		if _, _, _, ok := tr.step(); !ok {
			return out
		}
		wall, cpu := sw.elapsed()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
	}
	out.setE2E("setup_s", "s", median(setups))
	out.note("setup: %d repeats, on-CPU %v s, wall %v s (build + initial checkpoint + warm-up step)",
		setupRepeats, rounded(setups), rounded(setupWalls))

	if sp.baseline {
		checkBaseline(out, sp, math.Float64frombits(tr.ref[0]))
	}
	runtime.GC()

	tokens := float64(sp.cfg.GBS * sp.cfg.Seq)
	segment := o.seconds
	if o.trace {
		segment = o.seconds / 2
	}
	// Untraced steps: whole cycles (at least one, so every later step is
	// checked), so every run times the same batches; untraced runs also
	// take enough steps to resolve the tail percentile.
	var stepMS, stepWallMS []float64
	var ks []int
	start := time.Now()
	for time.Since(start).Seconds() < segment || !tr.atBoundary() ||
		(!o.trace && !resolves(len(stepMS), sp.tailP)) {
		if !tr.rewind() {
			return out
		}
		wall, cpu, k, ok := tr.step()
		if !ok {
			return out
		}
		stepMS, stepWallMS, ks = append(stepMS, ms(cpu)), append(stepWallMS, ms(wall)), append(ks, k)
	}
	// The batches of a cycle differ in cost, so step times cluster by
	// batch and their median jumps between clusters; the typical step is
	// the median over whole cycles of the cycle's mean step.
	cpu, wall := median(cycleMeans(stepMS, ks, sp.cycle)), median(cycleMeans(stepWallMS, ks, sp.cycle))
	out.setTimings(timing{stepMS, cpu, tokens / (cpu / 1e3)}, timing{stepWallMS, wall, tokens / (wall / 1e3)}, sp.tailP)
	out.note("steps: %d timed, untraced (%d-batch cycles, %.0f tokens each); cpu_ms_p50 is the median cycle's mean step, cpu_ms_tail p%g of steps",
		len(stepMS), sp.cycle, tokens, sp.tailP)
	if o.trace {
		traceTrain(o, tr, median(stepMS))
	}
	return out
}

// cycleMeans returns the mean step time of every whole cycle in xs, where
// ks are the steps' positions in their cycle.
func cycleMeans(xs []float64, ks []int, cycle int) []float64 {
	var means []float64
	var sum float64
	n := 0
	for i, x := range xs {
		if ks[i] == 0 {
			sum, n = 0, 0
		}
		sum, n = sum+x, n+1
		if ks[i] == cycle-1 && n == cycle {
			means = append(means, sum/float64(cycle))
		}
	}
	return means
}

// checkBaseline compares the cluster's warm-up loss with a single-rank
// cluster stepping the same batch (the sequential reference of core's
// equivalence tests).
func checkBaseline(out *outcome, sp trainSpec, loss0 float64) {
	b := sp.cfg
	b.Topo = core.Topology{TP: 1, CP: 1, PP: 1, DP: 1}
	b.V, b.NMB, b.NC = 1, 1, 1
	b.ZeRO, b.HostSize, b.Overlap = fsdp.ZeRO1, 0, core.OverlapConfig{}
	b.CPStrategy, b.CPCost, b.ShardPlanner = cp.StrategyAllGather, nil, nil
	out.attempted++
	cl, err := core.NewCluster(b)
	if err != nil {
		out.fail("single-rank baseline: %v", err)
		return
	}
	l, err := cl.TryStep(sp.gen, 0)
	if err != nil {
		out.fail("single-rank baseline step: %v", err)
		return
	}
	if math.Abs(l-loss0) > baselineTol {
		out.fail("first-step loss %v differs from the single-rank baseline %v by more than %g", loss0, l, baselineTol)
		return
	}
	out.note("baseline: first-step loss %.9g vs single-rank %.9g (|diff| %.2g <= %g)", loss0, l, math.Abs(l-loss0), baselineTol)
}

// trainStep is one traced step's per-layer figures.
type trainStep struct {
	outsideMS, dataMS, planMS                           float64
	embedMS, fwdMS, bwdMS, fwdSelfMS, bwdSelfMS, headMS float64
	p2pWaitMS, idleFrac                                 float64
	unattributed                                        []float64 // per rank, share of wall
	modelSelfMS                                         float64   // all ranks
	peakCtx                                             int
	peakActMB                                           float64
	commBytes, commMsgs                                 map[string]float64
	commBlockMS, commExposedMS, commHiddenMS            map[string]float64
	intraBytes, interBytes                              float64
	allocMB, gcCount, gcPauseMS                         float64
	ringDocFrac                                         float64
	// rankMS splits the step's rank time (ranks × wall) by where it went,
	// in ms summed over ranks (see timeShares).
	rankMS map[string]float64
}

// timeShares are the categories of trainStep.rankMS. The first six
// partition rank time; the last three are parts of outside_ops.
var timeShares = []string{"model_self", "comm_in_layers", "comm_in_ops", "p2p_wait", "unattributed", "outside_ops",
	"comm_outside_ops", "data", "shard_planner"}

// commGroups are the groups the per-layer comm metrics report.
var commGroups = []string{"tp", "cp", "cp.ring", "p2p", "pp", "dp", "world"}

// groupOf maps a span or meter label to its comm group: hierarchical
// tiers ("dp.inter") fold into their group.
func groupOf(label string) string {
	label = strings.TrimSuffix(label, ".inter")
	return strings.TrimSuffix(label, ".intra")
}

// traceTrain runs the traced half of a training run: it installs the
// tracer, steps whole cycles, cross-checks the traced counts against the
// xval predictions, and reports the per-layer metrics.
func traceTrain(o options, tr *trainer, untracedP50 float64) {
	sp, out, cl := tr.sp, tr.out, tr.cl
	n := len(cl.Ranks)
	t := newTracer(n)
	out.tracer = t
	planner := cl.Cfg.ShardPlanner
	var predicted *xval.Expected
	if !sp.exchangeOnly {
		predicted = xval.Predict(cl, true)
	}
	instrumentCluster(t, cl)
	tr.src = batcherSpans{sp.gen, t}

	var steps []trainStep
	var reps []*metrics.StepReport
	var stepMS []float64
	start := time.Now()
	commMismatch, attnMismatch := 0, 0
	for time.Since(start).Seconds() < o.seconds/2 || !tr.atBoundary() {
		if !tr.rewind() {
			return
		}
		m0 := readRuntime()
		t.BeginStep(tr.next)
		s0 := t.now()
		_, d, k, ok := tr.step()
		s1 := t.now()
		if !ok {
			return
		}
		rep, spans := t.endStep()
		m1 := readRuntime()
		t.harness(laneMain).add(span{Kind: kindStep, Name: "core.step", ID: tr.next - 1, Start: s0, End: s1})
		stepMS = append(stepMS, ms(d))
		st := analyzeTrainStep(t, rep, spans, float64(s1-s0)/1e6)
		st.allocMB, st.gcCount, st.gcPauseMS = m1.allocMB-m0.allocMB, m1.gcCount-m0.gcCount, m1.gcPauseMS-m0.gcPauseMS
		st.ringDocFrac = ringDocFrac(cl, sp.gen, int64(k))

		// Cross-checks against the closed-form predictions, with the
		// program's own (unwrapped) shard planner.
		cl.Cfg.ShardPlanner = planner
		if predicted != nil {
			for _, rr := range rep.Ranks {
				if !reflect.DeepEqual(rr.Comm, predicted.Comm[rr.Rank]) {
					commMismatch++
					out.fail("step %d rank %d: traced comm %v != xval.Predict %v", rep.Step, rr.Rank, rr.Comm, predicted.Comm[rr.Rank])
				}
				if got, want := rr.Overlapped, predicted.Overlapped[rr.Rank]; (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
					commMismatch++
					out.fail("step %d rank %d: traced handle-op comm %v != xval.Predict %v", rep.Step, rr.Rank, got, want)
				}
			}
		} else {
			want := xval.PredictCPPerRank(cl, sp.gen, int64(k))
			for _, r := range cl.Ranks {
				lbl := r.Groups.CP.Label
				got := map[string]metrics.OpVolume{}
				for key, v := range t.lanes[r.ID].commModel {
					switch key {
					case "cp.ring/send", "cp.ring/recv", lbl + "/allgather", lbl + "/allreduce":
						got[key] = v
					}
				}
				if !reflect.DeepEqual(got, want[r.ID]) {
					commMismatch++
					out.fail("step %d rank %d: traced K/V exchange %v != xval.PredictCPPerRank %v", rep.Step, r.ID, got, want[r.ID])
				}
			}
		}
		for i, w := range xval.PredictAttentionPerRank(cl, sp.gen, int64(k)) {
			rr := rep.Ranks[i]
			if rr.Attn != w.Stats || rr.AttnEffFLOPs != w.EffFLOPs || rr.AttnNominalFLOPs != w.NominalFLOPs {
				attnMismatch++
				out.fail("step %d rank %d: attention census %+v eff %d nom %d != predicted %+v eff %d nom %d",
					rep.Step, i, rr.Attn, rr.AttnEffFLOPs, rr.AttnNominalFLOPs, w.Stats, w.EffFLOPs, w.NominalFLOPs)
			}
		}
		cl.Cfg.ShardPlanner = t.wrapPlanner(planner)
		steps, reps = append(steps, st), append(reps, rep)
	}
	out.note("traced: %d steps; comm cross-check (%s) mismatches %d, attention census mismatches %d",
		len(steps), map[bool]string{false: "every rank's traffic and its handle-op part vs xval.Predict", true: "in-layer K/V exchange vs xval.PredictCPPerRank"}[sp.exchangeOnly],
		commMismatch, attnMismatch)

	// Span coverage: each rank's median unattributed share of step wall.
	worst := 0.0
	for r := 0; r < n; r++ {
		var xs []float64
		for _, st := range steps {
			xs = append(xs, st.unattributed[r])
		}
		u := median(xs)
		worst = max(worst, u)
		if math.Abs(u) > coverageTol {
			out.fail("rank %d: spans leave %.1f%% of step wall time unattributed (tolerance %.0f%%)", r, 100*u, 100*coverageTol)
		}
	}
	out.note("coverage: model self + comm + P2P wait + outside-ops leave at most %.2f%% of step wall unattributed on any rank (tolerance %.0f%%)",
		100*worst, 100*coverageTol)
	var rankMS float64
	for _, st := range steps {
		rankMS += st.rankMS["total"]
	}
	shares := make([]string, len(timeShares))
	for i, c := range timeShares {
		var v float64
		for _, st := range steps {
			v += st.rankMS[c]
		}
		shares[i] = fmt.Sprintf("%s %.1f%%", c, 100*v/rankMS)
	}
	out.note("rank time (%d ranks x step wall, traced steps): %s", n, strings.Join(shares, ", "))

	med := func(f func(trainStep) float64) float64 {
		xs := make([]float64, len(steps))
		for i, st := range steps {
			xs[i] = f(st)
		}
		return median(xs)
	}
	avg := func(f func(trainStep) float64) float64 {
		xs := make([]float64, len(steps))
		for i, st := range steps {
			xs[i] = f(st)
		}
		return mean(xs)
	}
	avgRep := func(f func(*metrics.StepReport) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		return mean(xs)
	}
	out.setLayer("core.outside_ops_ms", "ms", med(func(s trainStep) float64 { return s.outsideMS }))
	out.setLayer("core.unattributed_frac", "frac", worst)
	out.setLayer("data.batch_ms", "ms", med(func(s trainStep) float64 { return s.dataMS }))
	out.setLayer("model.embed_ms", "ms", med(func(s trainStep) float64 { return s.embedMS }))
	out.setLayer("model.block_fwd_ms", "ms", med(func(s trainStep) float64 { return s.fwdMS }))
	out.setLayer("model.block_bwd_ms", "ms", med(func(s trainStep) float64 { return s.bwdMS }))
	out.setLayer("model.block_fwd_self_ms", "ms", med(func(s trainStep) float64 { return s.fwdSelfMS }))
	out.setLayer("model.block_bwd_self_ms", "ms", med(func(s trainStep) float64 { return s.bwdSelfMS }))
	out.setLayer("model.head_ms", "ms", med(func(s trainStep) float64 { return s.headMS }))
	effFlops := avgRep(func(r *metrics.StepReport) float64 { return float64(r.EffectiveFLOPs) })
	poolGets := avgRep(func(r *metrics.StepReport) float64 { return float64(r.Pool.Gets) })
	out.setLayer("tensor.flops", "count", avgRep(func(r *metrics.StepReport) float64 { return float64(r.FLOPs) }))
	out.setLayer("tensor.eff_flops", "count", effFlops)
	out.setLayer("tensor.eff_gflops_per_s", "GFLOP/s", effFlops/avg(func(s trainStep) float64 { return s.modelSelfMS })/1e6)
	out.setLayer("tensor.pool_gets", "count", poolGets)
	out.setLayer("tensor.pool_hit_frac", "frac", frac(avgRep(func(r *metrics.StepReport) float64 { return float64(r.Pool.Hits) }), poolGets))
	out.setLayer("runtime.alloc_mb", "MB", avg(func(s trainStep) float64 { return s.allocMB }))
	out.setLayer("runtime.gc_count", "count", avg(func(s trainStep) float64 { return s.gcCount }))
	out.setLayer("runtime.gc_pause_ms", "ms", avg(func(s trainStep) float64 { return s.gcPauseMS }))
	var attn attention.Stats
	var eff, nom float64
	for _, rep := range reps {
		for _, rr := range rep.Ranks {
			attn = attn.Add(rr.Attn)
			eff += float64(rr.AttnEffFLOPs)
			nom += float64(rr.AttnNominalFLOPs)
		}
	}
	setAttention(out, attn, float64(len(steps)), frac(eff, nom))
	for _, g := range commGroups {
		out.setLayer("comm."+g+".bytes", "B", avg(func(s trainStep) float64 { return s.commBytes[g] }))
		out.setLayer("comm."+g+".msgs", "count", avg(func(s trainStep) float64 { return s.commMsgs[g] }))
		out.setLayer("comm."+g+".blocking_ms", "ms", med(func(s trainStep) float64 { return s.commBlockMS[g] }))
		out.setLayer("comm."+g+".exposed_ms", "ms", med(func(s trainStep) float64 { return s.commExposedMS[g] }))
		out.setLayer("comm."+g+".hidden_ms", "ms", med(func(s trainStep) float64 { return s.commHiddenMS[g] }))
	}
	out.setLayer("comm.intra_bytes", "B", avg(func(s trainStep) float64 { return s.intraBytes }))
	out.setLayer("comm.inter_bytes", "B", avg(func(s trainStep) float64 { return s.interBytes }))
	out.setLayer("pp.p2p_wait_ms", "ms", med(func(s trainStep) float64 { return s.p2pWaitMS }))
	out.setLayer("pp.idle_frac", "frac", med(func(s trainStep) float64 { return s.idleFrac }))
	peakCtx, peakAct := 0, 0.0
	for _, st := range steps {
		peakCtx, peakAct = max(peakCtx, st.peakCtx), max(peakAct, st.peakActMB)
	}
	out.setLayer("pp.peak_live_ctx", "count", float64(peakCtx))
	out.setLayer("pp.peak_act_mb", "MB", peakAct)
	out.setLayer("cp.ring_doc_frac", "frac", avg(func(s trainStep) float64 { return s.ringDocFrac }))
	out.setLayer("balance.plan_shards_ms", "ms", med(func(s trainStep) float64 { return s.planMS }))
	out.setLayer("balance.imbalance", "ratio", avgRep(func(r *metrics.StepReport) float64 {
		if r.Imbalance == nil {
			return 0
		}
		return r.Imbalance.MaxMeanRatio
	}))
	out.setLayer("trace_overhead_frac", "frac", median(stepMS)/untracedP50-1)
}

// wrapPlanner is the traced shard planner (see instrumentCluster).
func (t *tracer) wrapPlanner(plan func(*model.Sample, int) [][]int) func(*model.Sample, int) [][]int {
	if plan == nil {
		return nil
	}
	return func(s *model.Sample, n int) (out [][]int) {
		t.timed(t.harness(laneData), kindPlan, "balance.plan_shards", func() { out = plan(s, n) })
		return out
	}
}

// analyzeTrainStep folds one step's registry report, spans and lane
// counters. Per rank, the time inside executor ops (the report's compute
// + P2P wait) splits into model spans (whose nested comm is subtracted for
// self time), P2P wait, and comm outside any model span; the rest of the
// op time is unattributed. Time outside ops (optimizer, FSDP collectives,
// loss all-reduce, waiting for the slowest rank) is wall − the rank's op
// time.
func analyzeTrainStep(t *tracer, rep *metrics.StepReport, all [][]span, wallMS float64) trainStep {
	n := len(rep.Ranks)
	st := trainStep{
		unattributed: make([]float64, n),
		commBytes:    map[string]float64{}, commMsgs: map[string]float64{},
		commBlockMS: map[string]float64{}, commExposedMS: map[string]float64{}, commHiddenMS: map[string]float64{},
		rankMS: map[string]float64{"total": wallMS * float64(n)},
	}
	nsMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	maxOps, critCompute, critRank := 0.0, -1.0, 0
	var opsPer, p2pPer []float64
	for r, rr := range rep.Ranks {
		spans := append([]span(nil), all[r]...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		var models, ops []span
		for _, s := range spans {
			switch s.Kind {
			case kindModel:
				models = append(models, s)
			case kindOp:
				ops = append(ops, s)
			}
		}
		windows := opWindows(ops)
		child := make([]int64, len(models))
		var commInOps, commOutside int64
		for _, s := range spans {
			if s.Kind != kindComm && s.Kind != kindExposed {
				continue
			}
			g := groupOf(s.Name)
			if s.Kind == kindComm {
				st.commBlockMS[g] += nsMS(s.dur()) / float64(n)
			} else {
				st.commExposedMS[g] += nsMS(s.dur()) / float64(n)
			}
			i := sort.Search(len(models), func(i int) bool { return models[i].Start > s.Start }) - 1
			switch {
			case i >= 0 && s.End <= models[i].End:
				child[i] += s.dur()
			case g == "p2p": // the executor's P2P wait covers it
			case inOpWindow(windows, s):
				commInOps += s.dur()
			default:
				commOutside += s.dur()
			}
		}
		var embed, fwd, bwd, fwdSelf, bwdSelf, head, modelTotal, modelSelf int64
		for i, m := range models {
			d, self := m.dur(), m.dur()-child[i]
			modelTotal, modelSelf = modelTotal+d, modelSelf+self
			switch m.Name {
			case "model.embed.fwd", "model.embed.bwd":
				embed += d
			case "model.block.fwd":
				fwd, fwdSelf = fwd+d, fwdSelf+self
			case "model.block.bwd":
				bwd, bwdSelf = bwd+d, bwdSelf+self
			case "model.head.fwd", "model.head.bwd":
				head += d
			}
		}
		p2p := int64(rr.P2PWaitSeconds * 1e9)
		inOps := int64(rr.ComputeSeconds*1e9) + p2p
		l := t.lanes[r]
		l.mu.Lock()
		for g, h := range l.hidden {
			st.commHiddenMS[groupOf(g)] += nsMS(h) / float64(n)
		}
		l.mu.Unlock()
		for key, v := range rr.Comm {
			label, op, _ := strings.Cut(key, "/")
			g := groupOf(label)
			st.commBytes[g] += float64(v.Bytes)
			st.commMsgs[g] += float64(v.Msgs)
			if strings.HasSuffix(op, ".inter") {
				st.interBytes += float64(v.Bytes)
			} else {
				st.intraBytes += float64(v.Bytes)
			}
		}
		st.peakCtx = max(st.peakCtx, rr.PeakLiveContexts)
		st.peakActMB = max(st.peakActMB, float64(rr.PeakActivationBytes)/(1<<20))

		un := inOps - modelTotal - p2p - commInOps
		st.unattributed[r] = nsMS(un) / wallMS
		st.modelSelfMS += nsMS(modelSelf)
		st.rankMS["model_self"] += nsMS(modelSelf)
		st.rankMS["comm_in_layers"] += nsMS(modelTotal - modelSelf)
		st.rankMS["comm_in_ops"] += nsMS(commInOps)
		st.rankMS["p2p_wait"] += nsMS(p2p)
		st.rankMS["unattributed"] += nsMS(un)
		st.rankMS["outside_ops"] += wallMS - nsMS(inOps)
		st.rankMS["comm_outside_ops"] += nsMS(commOutside)
		st.embedMS = max(st.embedMS, nsMS(embed))
		st.fwdMS = max(st.fwdMS, nsMS(fwd))
		st.bwdMS = max(st.bwdMS, nsMS(bwd))
		st.fwdSelfMS = max(st.fwdSelfMS, nsMS(fwdSelf))
		st.bwdSelfMS = max(st.bwdSelfMS, nsMS(bwdSelf))
		st.headMS = max(st.headMS, nsMS(head))
		st.p2pWaitMS = max(st.p2pWaitMS, nsMS(p2p))
		opsMS := nsMS(inOps)
		maxOps = max(maxOps, opsMS)
		if c := nsMS(inOps - p2p); c > critCompute {
			critCompute, critRank = c, r
		}
		opsPer, p2pPer = append(opsPer, opsMS), append(p2pPer, nsMS(p2p))
	}
	st.outsideMS = wallMS - maxOps
	// The critical rank is the one with the most compute inside ops; its
	// idle share is the part of the step it spent not computing.
	st.idleFrac = 1 - (opsPer[critRank]-p2pPer[critRank])/wallMS
	for _, s := range all[n+laneData] {
		switch s.Kind {
		case kindData:
			st.dataMS += nsMS(s.dur()) / float64(n)
			st.rankMS["data"] += nsMS(s.dur())
		case kindPlan:
			st.planMS += nsMS(s.dur()) / float64(n)
			st.rankMS["shard_planner"] += nsMS(s.dur())
		}
	}
	return st
}

// inOpWindow reports whether s lies inside one of the op windows.
func inOpWindow(windows []span, s span) bool {
	for _, w := range windows {
		if s.Start >= w.Start && s.End <= w.End {
			return true
		}
	}
	return false
}

// ringDocFrac is the fraction of a step's documents the cluster's CP
// strategy routes by ring, replaying cp.PlanFor on the step's samples.
func ringDocFrac(cl *core.Cluster, gen *data.Generator, step int64) float64 {
	cfg := cl.Cfg
	if cfg.Topo.CP <= 1 || cfg.CPStrategy == cp.StrategyAllGather {
		return 0
	}
	ranks := cl.Ranks[0].Groups.CP.Ranks()
	var ring, docs int
	for _, s := range gen.GlobalBatch(step, cfg.GBS) {
		p := cp.PlanFor(cfg.CPStrategy, cfg.CPCostModel(), ranks, cfg.Seq, s.DocIDs, cfg.UseDocMask,
			cfg.Model.NHeads/cfg.Topo.TP, cfg.Model.NKVHeads/cfg.Topo.TP, cfg.Model.HeadDim())
		for _, r := range p.Ring {
			docs++
			if r {
				ring++
			}
		}
	}
	return frac(float64(ring), float64(docs))
}

// setAttention reports the attention census over `units` steps (or
// rounds): calls per unit and the sparsity ratios.
func setAttention(out *outcome, s attention.Stats, units, effFrac float64) {
	out.setLayer("attention.calls", "count", frac(float64(s.Calls), units))
	out.setLayer("attention.allowed_pair_frac", "frac", frac(float64(s.AllowedPairs), float64(s.TotalPairs)))
	out.setLayer("attention.empty_tile_frac", "frac",
		frac(float64(s.EmptyTiles), float64(s.FullTiles+s.PartialTiles+s.EmptyTiles)))
	out.setLayer("attention.eff_flop_frac", "frac", effFrac)
}

func rounded(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
