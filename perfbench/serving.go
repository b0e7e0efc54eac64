package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/serve"
	"llama4d/internal/tensor"
)

// The serve workload: a closed loop of 32 clients against a TP2 engine.
// Each client submits its next request at the tick after its previous one
// completes, so arrivals are a function of ticks only and every TP
// replica's scheduler sees the same submissions without coordination.
const (
	serveTP        = 2
	serveClients   = 32
	servePerClient = 4 // requests per client per round
	servePromptMin = 8
	servePromptMax = 64
	serveNewMin    = 16
	serveNewMax    = 64
	servePageSize  = 8
	// servePageBudget is tight enough that full concurrency preempts.
	servePageBudget = 560
	serveTailP      = 99.0
	ttftTailP       = 95.0 // each round has 128 first tokens
	// oracleRequests per round are replayed through the dense
	// full-forward oracle.
	oracleRequests = 1
)

func serveModelConfig() model.Config {
	return model.Config{Vocab: 512, Dim: 64, Hidden: 176, NHeads: 4, NKVHeads: 2,
		NLayers: 4, MaxSeq: 128, RopeBase: 10000}
}

// server is one set-up TP world with an engine per rank.
type server struct {
	world   *comm.World
	engines []*serve.Engine
	seed    int64
}

func newServer(seed int64) *server {
	m := model.New(serveModelConfig(), rand.New(rand.NewSource(seed)))
	world := comm.NewWorld(serveTP)
	ranks := make([]int, serveTP)
	for i := range ranks {
		ranks[i] = i
	}
	group := world.NewGroup(ranks)
	group.Label = "tp"
	s := &server{world: world, seed: seed}
	for r := 0; r < serveTP; r++ {
		s.engines = append(s.engines, serve.NewEngine(m, serve.Options{
			PageSize: servePageSize, PageBudget: servePageBudget, Group: group, Rank: r}))
	}
	return s
}

// request builds client c's k-th request of a round: a pure function of
// (seed, round, client, k), so every rank generates the same stream.
func (s *server) request(round, c, k, perClient int) *serve.Request {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(round)*10_007 + int64(c)*101 + int64(k)))
	prompt := make([]int, servePromptMin+rng.Intn(servePromptMax-servePromptMin+1))
	for i := range prompt {
		prompt[i] = rng.Intn(serveModelConfig().Vocab)
	}
	return &serve.Request{ID: c*perClient + k, Prompt: prompt,
		MaxNew: serveNewMin + rng.Intn(serveNewMax-serveNewMin+1)}
}

// roundResult is rank 0's view of one round.
type roundResult struct {
	done    []*serve.SeqState
	other   [][]int // rank 1's outputs, by request id
	steps   int
	preempt int
	leased  []int // pages still leased per rank after the round
	rejects int
}

// round runs one closed-loop round on every rank. runner wraps each rank's
// engine (nil for none); step, when set, observes each Scheduler.Step.
func (s *server) round(idx int, clients, perClient int, runner func(rank int, e *serve.Engine) serve.Runner,
	step func(rank, tick int, f func())) (*roundResult, error) {
	res := &roundResult{leased: make([]int, serveTP), other: make([][]int, clients*perClient)}
	rejects := make([]int, serveTP)
	err := s.world.RunSPMD(func(rank int) {
		e := s.engines[rank]
		var run serve.Runner = e
		if runner != nil {
			run = runner(rank, e)
		}
		sch := serve.NewScheduler(e.KV, run, clients)
		sent := make([]int, clients)
		submit := func(c int) {
			r := s.request(idx, c, sent[c], perClient)
			r.Arrival = sch.Clock()
			sent[c]++
			if err := sch.Submit(r); err != nil {
				rejects[rank]++
			}
		}
		for c := 0; c < clients; c++ {
			submit(c)
		}
		seen := 0
		for {
			if step != nil {
				step(rank, sch.Clock(), func() { sch.Step() })
			} else {
				sch.Step()
			}
			done := sch.Completed()
			for _, seq := range done[seen:] {
				if c := seq.Req.ID / perClient; sent[c] < perClient {
					submit(c)
				}
			}
			seen = len(done)
			if sch.Idle() {
				break
			}
		}
		res.leased[rank] = e.KV.Alloc.Leased()
		if rank == 0 {
			res.done, res.steps, res.preempt = sch.Completed(), sch.Steps, sch.Preemptions
		} else if rank == 1 {
			for _, seq := range sch.Completed() {
				res.other[seq.Req.ID] = seq.Output
			}
		}
	})
	res.rejects = rejects[0]
	return res, err
}

// check validates a round: every request completed with exactly MaxNew
// tokens on both replicas, no page leaked, and the sampled requests match
// the dense full-forward argmax oracle. Returns the requests attempted.
func (s *server) check(out *outcome, idx int, res *roundResult, kv0 tensor.PoolStats) {
	want := serveClients * servePerClient
	out.attempted += want
	if res.rejects > 0 {
		out.fail("round %d: %d requests rejected", idx, res.rejects)
	}
	if len(res.done) != want {
		out.fail("round %d: %d of %d requests completed", idx, len(res.done), want)
	}
	for _, seq := range res.done {
		if len(seq.Output) != seq.Req.MaxNew {
			out.fail("round %d request %d: %d tokens, want MaxNew %d", idx, seq.Req.ID, len(seq.Output), seq.Req.MaxNew)
		}
		if fmt.Sprint(seq.Output) != fmt.Sprint(res.other[seq.Req.ID]) {
			out.fail("round %d request %d: TP replicas disagree", idx, seq.Req.ID)
		}
	}
	for r, n := range res.leased {
		if n != 0 {
			out.fail("round %d rank %d: %d KV pages leaked", idx, r, n)
		}
	}
	kv1 := tensor.DefaultPoolTagStats()[serve.KVPoolTag]
	if leak := (kv1.Gets - kv0.Gets) - (kv1.Puts - kv0.Puts); leak != 0 {
		out.fail("round %d: KV pool gets-puts = %d", idx, leak)
	}
	if len(res.done) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(s.seed + int64(idx)))
	for i := 0; i < oracleRequests; i++ {
		seq := res.done[rng.Intn(len(res.done))]
		if err := s.oracle(seq); err != nil {
			out.fail("round %d request %d: %v", idx, seq.Req.ID, err)
		}
	}
}

// oracle replays a request greedily through FullForwardLogits on every
// rank and compares each generated token with the argmax.
func (s *server) oracle(seq *serve.SeqState) error {
	tokens := append([]int(nil), seq.Req.Prompt...)
	var bad error
	err := s.world.RunSPMD(func(rank int) {
		toks := append([]int(nil), tokens...)
		for j, got := range seq.Output {
			lg := s.engines[rank].FullForwardLogits(toks)
			w := argmax(lg.Row(lg.Rows() - 1))
			tensor.Put(lg)
			if rank == 0 && w != got && bad == nil {
				bad = fmt.Errorf("token %d: engine %d != oracle %d", j, got, w)
			}
			toks = append(toks, got)
		}
	})
	if err != nil {
		return err
	}
	return bad
}

// cpuClock maps wall instants inside a round to the process's on-CPU
// time. Rank 0 marks both clocks around every scheduler step; an instant
// between two marks is interpolated. On-CPU time between two marks covers
// every rank, since the TP ranks meet in each step's all-reduces.
type cpuClock struct {
	wall []time.Time
	cpu  []time.Duration
}

func (c *cpuClock) mark() {
	c.wall, c.cpu = append(c.wall, time.Now()), append(c.cpu, cpuNow())
}

// at returns the on-CPU time at wall instant t, in ms.
func (c *cpuClock) at(t time.Time) float64 {
	n := len(c.wall)
	i := sort.Search(n, func(i int) bool { return !c.wall[i].Before(t) })
	switch {
	case n == 0:
		return 0
	case i == 0:
		return ms(c.cpu[0])
	case i == n:
		return ms(c.cpu[n-1])
	}
	f := float64(t.Sub(c.wall[i-1])) / float64(c.wall[i].Sub(c.wall[i-1]))
	return ms(c.cpu[i-1]) + f*ms(c.cpu[i]-c.cpu[i-1])
}

func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

func runServe(o options) *outcome {
	out := &outcome{}
	// Set-up: build the model and the TP engines, then the warm-up round
	// (the first engine calls: one request per client).
	var srv *server
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		srv = nil
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		srv = newServer(o.seed)
		if _, err := srv.round(-1, serveClients, 1, nil, nil); err != nil {
			out.fail("warm-up round: %v", err)
			return out
		}
		wall, cpu := sw.elapsed()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
	}
	out.setE2E("setup_s", "s", median(setups))
	out.note("setup: %d repeats, on-CPU %v s, wall %v s (model + TP engines + warm-up round)",
		setupRepeats, rounded(setups), rounded(setupWalls))

	segment := o.seconds
	if o.trace {
		segment = o.seconds / 2
	}
	var itl, itlWall, ttft, roundMS, roundTokS, roundWallTokS []float64
	var tokens int
	idx := 0
	start := time.Now()
	for idx == 0 || time.Since(start).Seconds() < segment || (!o.trace && !resolves(len(itl), serveTailP)) {
		kv0 := tensor.DefaultPoolTagStats()[serve.KVPoolTag]
		clk := &cpuClock{}
		sw := startWatch()
		res, err := srv.round(idx, serveClients, servePerClient, nil, func(rank, _ int, f func()) {
			if rank != 0 {
				f()
				return
			}
			clk.mark()
			f()
			clk.mark()
		})
		wall, cpu := sw.elapsed()
		if err != nil {
			out.attempted++
			out.fail("round %d: %v", idx, err)
			return out
		}
		roundMS = append(roundMS, ms(cpu))
		n := 0
		for _, seq := range res.done {
			n += len(seq.Output)
			ttft = append(ttft, ms(seq.FirstToken.Sub(seq.Submitted)))
			for i := 1; i < len(seq.TokenTimes); i++ {
				t0, t1 := seq.TokenTimes[i-1], seq.TokenTimes[i]
				itl, itlWall = append(itl, clk.at(t1)-clk.at(t0)), append(itlWall, ms(t1.Sub(t0)))
			}
		}
		tokens += n
		roundTokS = append(roundTokS, float64(n)/cpu.Seconds())
		roundWallTokS = append(roundWallTokS, float64(n)/wall.Seconds())
		srv.check(out, idx, res, kv0)
		idx++
	}
	out.setTimings(timing{itl, median(itl), median(roundTokS)}, timing{itlWall, median(itlWall), median(roundWallTokS)}, serveTailP)
	out.note("rounds: %d of %d clients x %d requests; %d tokens; an operation is an inter-token interval (p%g of %d samples); ttft p50 %.2f ms wall",
		idx, serveClients, servePerClient, tokens, serveTailP, len(itl), median(ttft))
	if o.trace {
		out.setLayer("serve.ttft_ms_p50", "ms", median(ttft))
		out.setLayer("serve.ttft_ms_tail", "ms", quantile(ttft, ttftTailP/100))
		traceServe(o, out, srv, idx, median(roundMS))
	}
	return out
}

// traceServe runs traced rounds: the tracer is the world's Recorder and
// Meter (forwarding to its registry, one step per round), each rank's
// scheduler drives a span-recording Runner, and each Scheduler.Step is a
// span on its rank's lane.
func traceServe(o options, out *outcome, srv *server, idx int, untracedRoundMS float64) {
	t := newTracer(serveTP)
	out.tracer = t
	type roundStats struct {
		ms, cpuMS, allocMB, gcCount, gcPauseMS, preempt, prefillTok, replayTok, decodes float64
		decodeRows, blockMS, exposedMS, hiddenMS                                        float64
	}
	var rounds []roundStats
	var reps []*metrics.StepReport
	var prefillMS, decodeMS, schedMS []float64
	var runnerMS float64 // both ranks
	spanMismatch := 0
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < o.seconds/2; n++ {
		runners := make([]*runnerSpans, serveTP)
		m0 := readRuntime()
		kv0 := tensor.DefaultPoolTagStats()[serve.KVPoolTag]
		srv.world.Recorder, srv.world.Meter = t, t
		t.BeginStep(int64(idx))
		c0 := cpuNow()
		s0 := t.now()
		res, err := srv.round(idx, serveClients, servePerClient,
			func(rank int, e *serve.Engine) serve.Runner {
				runners[rank] = &runnerSpans{Runner: e, t: t, l: t.lanes[rank]}
				return runners[rank]
			},
			func(rank, tick int, f func()) {
				runners[rank].tick = int64(tick)
				t.timedAs(t.lanes[rank], kindStep, "serve.step", int64(tick), f)
			})
		s1 := t.now()
		cpuMS := ms(cpuNow() - c0)
		rep, spans := t.endStep()
		// The checks' oracle forwards are not the round's traffic.
		srv.world.Recorder, srv.world.Meter = nil, nil
		if err != nil {
			out.attempted++
			out.fail("traced round %d: %v", idx, err)
			return
		}
		m1 := readRuntime()
		t.harness(laneMain).add(span{Kind: kindStep, Name: "serve.round", ID: int64(idx), Start: s0, End: s1})
		for _, seq := range res.done {
			end := seq.TokenTimes[len(seq.TokenTimes)-1]
			t.harness(laneReqs).add(span{Kind: kindServe, Name: "serve.request", ID: int64(seq.Req.ID),
				Start: t.at(seq.Submitted), End: t.at(end)})
		}
		rs := roundStats{
			ms:      float64(s1-s0) / 1e6,
			cpuMS:   cpuMS,
			allocMB: m1.allocMB - m0.allocMB, gcCount: m1.gcCount - m0.gcCount, gcPauseMS: m1.gcPauseMS - m0.gcPauseMS,
			preempt: float64(res.preempt),
		}
		r0 := runners[0]
		rs.prefillTok, rs.replayTok = float64(r0.prefillTok), float64(r0.replayTok)
		rs.decodes, rs.decodeRows = float64(r0.decodes), float64(r0.decodeRows)
		for r, rr := range rep.Ranks {
			l := t.lanes[r]
			l.mu.Lock()
			for _, h := range l.hidden {
				rs.hiddenMS += float64(h) / 1e6 / serveTP
			}
			l.mu.Unlock()
			ss := append([]span(nil), spans[r]...)
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
			var steps []span
			var commSpans int64
			runnerIn := map[int]int64{} // step index -> runner ns inside it
			for _, s := range ss {
				switch s.Kind {
				case kindComm:
					commSpans++
					rs.blockMS += float64(s.dur()) / 1e6 / serveTP
				case kindExposed:
					commSpans++
					rs.exposedMS += float64(s.dur()) / 1e6 / serveTP
				case kindStep:
					steps = append(steps, s)
				}
			}
			// Every metered op of the engine is one collective, blocking or
			// handle-based, so the round's comm spans (blocking plus
			// handle waits) and metered messages must agree.
			var msgs int64
			for _, v := range rr.Comm {
				msgs += v.Msgs
			}
			if commSpans != msgs {
				spanMismatch++
				out.fail("traced round %d rank %d: %d comm spans but %d metered messages", idx, r, commSpans, msgs)
			}
			for _, s := range ss {
				if s.Kind != kindServe {
					continue
				}
				i := sort.Search(len(steps), func(i int) bool { return steps[i].Start > s.Start }) - 1
				if i >= 0 && s.End <= steps[i].End {
					runnerIn[i] += s.dur()
				}
				runnerMS += float64(s.dur()) / 1e6
				if r == 0 && s.Name == "serve.prefill" {
					prefillMS = append(prefillMS, float64(s.dur())/1e6)
				} else if r == 0 {
					decodeMS = append(decodeMS, float64(s.dur())/1e6)
				}
			}
			if r == 0 {
				for i, s := range steps {
					schedMS = append(schedMS, float64(s.dur()-runnerIn[i])/1e6)
				}
			}
		}
		srv.check(out, idx, res, kv0)
		rounds, reps = append(rounds, rs), append(reps, rep)
		idx++
	}
	avg := func(f func(roundStats) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
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
	commSum := func(rep *metrics.StepReport, f func(metrics.OpVolume) int64) float64 {
		var s int64
		for _, rr := range rep.Ranks {
			for _, v := range rr.Comm {
				s += f(v)
			}
		}
		return float64(s)
	}
	var roundMS []float64
	for _, r := range rounds {
		roundMS = append(roundMS, r.cpuMS)
	}
	var attn attention.Stats
	for _, rep := range reps {
		attn = attn.Add(rep.Attn)
	}
	var wallMS float64
	for _, r := range rounds {
		wallMS += r.ms * serveTP
	}
	out.note("traced: %d rounds; (round, rank) pairs whose comm spans and metered messages disagree: %d", len(rounds), spanMismatch)
	var prefillSum, decodeSum float64
	for _, x := range prefillMS {
		prefillSum += x
	}
	for _, x := range decodeMS {
		decodeSum += x
	}
	commMS := (avg(func(r roundStats) float64 { return r.blockMS }) + avg(func(r roundStats) float64 { return r.exposedMS })) *
		serveTP * float64(len(rounds))
	out.note("rank time (%d ranks x round wall, traced rounds): runner %.1f%% (rank 0: prefill %.1f%%, decode %.1f%%), of which comm blocking + exposed %.1f%%",
		serveTP, 100*runnerMS/wallMS, 100*prefillSum*serveTP/wallMS, 100*decodeSum*serveTP/wallMS, 100*commMS/wallMS)
	out.setLayer("serve.prefill_ms", "ms", median(prefillMS))
	out.setLayer("serve.prefill_tokens", "count", avg(func(r roundStats) float64 { return r.prefillTok }))
	out.setLayer("serve.decode_ms", "ms", median(decodeMS))
	out.setLayer("serve.decode_batch", "count", frac(avg(func(r roundStats) float64 { return r.decodeRows }),
		avg(func(r roundStats) float64 { return r.decodes })))
	out.setLayer("serve.sched_ms", "ms", median(schedMS))
	out.setLayer("serve.preemptions", "count", avg(func(r roundStats) float64 { return r.preempt }))
	out.setLayer("serve.replayed_tokens", "count", avg(func(r roundStats) float64 { return r.replayTok }))
	processed := avg(func(r roundStats) float64 { return r.prefillTok + r.decodeRows })
	out.setLayer("serve.useful_token_frac", "frac", frac(processed-avg(func(r roundStats) float64 { return r.replayTok }), processed))
	out.setLayer("serve.kv_page_gets", "count", avgRep(func(r *metrics.StepReport) float64 { return float64(r.PoolTags[serve.KVPoolTag].Gets) }))
	commBytes := avgRep(func(r *metrics.StepReport) float64 {
		return commSum(r, func(v metrics.OpVolume) int64 { return v.Bytes })
	})
	out.setLayer("comm.tp.bytes", "B", commBytes)
	out.setLayer("comm.tp.msgs", "count", avgRep(func(r *metrics.StepReport) float64 {
		return commSum(r, func(v metrics.OpVolume) int64 { return v.Msgs })
	}))
	out.setLayer("comm.tp.blocking_ms", "ms", avg(func(r roundStats) float64 { return r.blockMS }))
	out.setLayer("comm.tp.exposed_ms", "ms", avg(func(r roundStats) float64 { return r.exposedMS }))
	out.setLayer("comm.tp.hidden_ms", "ms", avg(func(r roundStats) float64 { return r.hiddenMS }))
	out.setLayer("comm.intra_bytes", "B", commBytes)
	effFlops := avgRep(func(r *metrics.StepReport) float64 { return float64(r.EffectiveFLOPs) })
	poolGets := avgRep(func(r *metrics.StepReport) float64 { return float64(r.Pool.Gets) })
	out.setLayer("tensor.flops", "count", avgRep(func(r *metrics.StepReport) float64 { return float64(r.FLOPs) }))
	out.setLayer("tensor.eff_flops", "count", effFlops)
	out.setLayer("tensor.eff_gflops_per_s", "GFLOP/s", frac(effFlops*float64(len(rounds)), runnerMS*1e6))
	out.setLayer("tensor.pool_gets", "count", poolGets)
	out.setLayer("tensor.pool_hit_frac", "frac", frac(avgRep(func(r *metrics.StepReport) float64 { return float64(r.Pool.Hits) }), poolGets))
	out.setLayer("runtime.alloc_mb", "MB", avg(func(r roundStats) float64 { return r.allocMB }))
	out.setLayer("runtime.gc_count", "count", avg(func(r roundStats) float64 { return r.gcCount }))
	out.setLayer("runtime.gc_pause_ms", "ms", avg(func(r roundStats) float64 { return r.gcPauseMS }))
	setAttention(out, attn, float64(len(rounds)), 1-frac(float64(attn.EmptyPairs), float64(attn.TotalPairs)))
	out.setLayer("trace_overhead_frac", "frac", median(roundMS)/untracedRoundMS-1)
}
