package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llama4d/internal/comm"
	"llama4d/internal/core"
	"llama4d/internal/data"
	"llama4d/internal/metrics"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/serve"
	"llama4d/internal/tensor"
)

// Span kinds. A span's kind decides how the per-step analysis folds it:
// model spans own their nested comm spans (self time = span − comm), op
// spans bound the executor's pipeline ops, and the rest are leaves.
const (
	kindStep    = "step"    // harness: one training step / engine step / search
	kindOp      = "op"      // pp.Executor op (from the Observer)
	kindModel   = "model"   // model.TokenEmbedder / Layer / LossHead call
	kindComm    = "comm"    // blocking collective (comm.Recorder)
	kindExposed = "exposed" // handle op, blocked-in-Wait part (comm.OverlapRecorder)
	kindData    = "data"    // data.Batcher call
	kindPlan    = "plan"    // Config.ShardPlanner call
	kindServe   = "serve"   // serve.Runner call or request lifetime
)

// span is one traced interval on a lane. Name is the layer boundary (for
// comm spans, the group label), ID the shared id (step index, engine tick,
// or request id). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Kind  string
	Name  string
	ID    int64
	Start int64
	End   int64
}

func (s span) dur() int64 { return s.End - s.Start }

// lane holds one rank's spans and the two counters the registry does not
// keep. Spans are appended by the rank's goroutine; the Meter may also be
// called from comm's delivery goroutines, hence the mutex.
type lane struct {
	mu    sync.Mutex
	spans []span
	// inModel counts open model spans: a Meter record issued while it is
	// positive belongs to a layer (K/V exchange, TP all-reduce).
	inModel atomic.Int32

	commModel map[string]metrics.OpVolume // "group/op" issued inside a model span
	hidden    map[string]int64            // group -> ns of handle time hidden behind compute
}

func (l *lane) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// tracer adds span tracing on top of the program's metrics.Registry. The
// registry keeps the step counters (per-rank comm volumes, P2P wait,
// activation and context peaks, attention census, FLOP and pool deltas);
// the tracer forwards every hook to it and adds what it lacks: a span at
// each boundary, the comm a rank issues inside a model span, and the
// per-group split of handle time into exposed and hidden. Spans stay in
// memory, one lane per rank plus harness lanes, and are written out when
// the run ends.
type tracer struct {
	*metrics.Registry
	epoch time.Time
	lanes []*lane // ranks 0..n-1, then the harness lanes below
	id    atomic.Int64
	// cut[i] is the index of lane i's first span of the current step.
	cut []int
}

// Harness lanes, after the rank lanes.
const (
	laneMain = iota // core.step / serve round / planner search
	laneData        // data.Batcher and ShardPlanner calls (rank-agnostic)
	laneReqs        // serving request lifetimes
	nHarnessLanes
)

func newTracer(ranks int) *tracer {
	t := &tracer{Registry: metrics.NewRegistry(ranks), epoch: time.Now(), cut: make([]int, ranks+nHarnessLanes)}
	for i := 0; i < ranks+nHarnessLanes; i++ {
		t.lanes = append(t.lanes, &lane{})
	}
	return t
}

func (t *tracer) ranks() int            { return len(t.lanes) - nHarnessLanes }
func (t *tracer) harness(h int) *lane   { return t.lanes[t.ranks()+h] }
func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// before returns the interval of `sec` seconds ending now.
func (t *tracer) before(sec float64) (start, end int64) {
	end = t.now()
	return end - int64(sec*1e9), end
}

// BeginStep starts step (or round) id: the registry's counters and the
// lanes' own counters reset, and new spans carry id.
func (t *tracer) BeginStep(id int64) {
	t.id.Store(id)
	for _, l := range t.lanes {
		l.mu.Lock()
		l.commModel = map[string]metrics.OpVolume{}
		l.hidden = map[string]int64{}
		l.mu.Unlock()
	}
	t.Registry.BeginStep(id)
}

// endStep returns the registry's report of the step and each lane's spans
// recorded since the last cut, and advances the cut.
func (t *tracer) endStep() (*metrics.StepReport, [][]span) {
	rep := t.Registry.EndStep()
	out := make([][]span, len(t.lanes))
	for i, l := range t.lanes {
		l.mu.Lock()
		out[i] = l.spans[t.cut[i]:len(l.spans):len(l.spans)]
		t.cut[i] = len(l.spans)
		l.mu.Unlock()
	}
	return rep, out
}

// RecordComm implements comm.Recorder: a blocking collective of the
// labelled group (hierarchical tiers arrive as "<label>.inter").
func (t *tracer) RecordComm(rank int, label string, dur float64) {
	t.Registry.RecordComm(rank, label, dur)
	s, e := t.before(dur)
	t.lanes[rank].add(span{Kind: kindComm, Name: label, ID: t.id.Load(), Start: s, End: e})
}

// RecordOverlap implements comm.OverlapRecorder: only the part blocked in
// Wait is a span (it nests where the rank waited); the hidden remainder is
// a per-group counter, since its interval overlaps unrelated compute.
func (t *tracer) RecordOverlap(rank int, group, op string, bytes int64, total, exposed float64) {
	t.Registry.RecordOverlap(rank, group, op, bytes, total, exposed)
	l := t.lanes[rank]
	s, e := t.before(exposed)
	l.add(span{Kind: kindExposed, Name: group, ID: t.id.Load(), Start: s, End: e})
	if total > exposed {
		l.mu.Lock()
		l.hidden[group] += int64((total - exposed) * 1e9)
		l.mu.Unlock()
	}
}

// RecordOp implements comm.Meter; ops issued inside a model span are also
// counted on the lane.
func (t *tracer) RecordOp(rank int, group, op string, bytes int64) {
	t.Registry.RecordOp(rank, group, op, bytes)
	l := t.lanes[rank]
	if l.inModel.Load() == 0 {
		return
	}
	k := group + "/" + op
	l.mu.Lock()
	v := l.commModel[k]
	v.Bytes += bytes
	v.Msgs++
	l.commModel[k] = v
	l.mu.Unlock()
}

// OpExecuted implements pp.Observer: the op also becomes a span ending now.
func (t *tracer) OpExecuted(rank int, op pp.Op, dur, p2pWait float64, liveBytes int64, liveContexts int) {
	t.Registry.OpExecuted(rank, op, dur, p2pWait, liveBytes, liveContexts)
	s, e := t.before(dur)
	name := "pp.fwd"
	if op.Kind == pp.Bwd {
		name = "pp.bwd"
	}
	t.lanes[rank].add(span{Kind: kindOp, Name: name, ID: t.id.Load(), Start: s, End: e})
}

// timed runs f as a span of the given kind and name on lane l, under the
// current shared id.
func (t *tracer) timed(l *lane, kind, name string, f func()) {
	t.timedAs(l, kind, name, t.id.Load(), f)
}

func (t *tracer) timedAs(l *lane, kind, name string, id int64, f func()) {
	s := t.now()
	if kind == kindModel {
		l.inModel.Add(1)
	}
	f()
	if kind == kindModel {
		l.inModel.Add(-1)
	}
	l.add(span{Kind: kind, Name: name, ID: id, Start: s, End: t.now()})
}

// ---- wrappers around the program's public interface values ----

type embedSpans struct {
	model.TokenEmbedder
	t *tracer
	l *lane
}

func (w embedSpans) Forward(tokens []int) (x *tensor.Tensor, ctx any) {
	w.t.timed(w.l, kindModel, "model.embed.fwd", func() { x, ctx = w.TokenEmbedder.Forward(tokens) })
	return x, ctx
}

func (w embedSpans) Backward(ctx any, dy *tensor.Tensor) {
	w.t.timed(w.l, kindModel, "model.embed.bwd", func() { w.TokenEmbedder.Backward(ctx, dy) })
}

type layerSpans struct {
	model.Layer
	t *tracer
	l *lane
}

func (w layerSpans) Forward(x *tensor.Tensor, env *model.Env) (y *tensor.Tensor, ctx any) {
	w.t.timed(w.l, kindModel, "model.block.fwd", func() { y, ctx = w.Layer.Forward(x, env) })
	return y, ctx
}

func (w layerSpans) Backward(ctx any, dy *tensor.Tensor) (dx *tensor.Tensor) {
	w.t.timed(w.l, kindModel, "model.block.bwd", func() { dx = w.Layer.Backward(ctx, dy) })
	return dx
}

type headSpans struct {
	model.LossHead
	t *tracer
	l *lane
}

func (w headSpans) ForwardLoss(x *tensor.Tensor, targets []int, scale float32, env *model.Env) (loss float64, ctx any) {
	w.t.timed(w.l, kindModel, "model.head.fwd", func() { loss, ctx = w.LossHead.ForwardLoss(x, targets, scale, env) })
	return loss, ctx
}

func (w headSpans) BackwardLoss(ctx any) (dx *tensor.Tensor) {
	w.t.timed(w.l, kindModel, "model.head.bwd", func() { dx = w.LossHead.BackwardLoss(ctx) })
	return dx
}

type batcherSpans struct {
	data.Batcher
	t *tracer
}

func (b batcherSpans) DPBatch(step int64, gbs, ndp, dpRank int) (out []*model.Sample) {
	b.t.timed(b.t.harness(laneData), kindData, "data.batch", func() { out = b.Batcher.DPBatch(step, gbs, ndp, dpRank) })
	return out
}

type runnerSpans struct {
	serve.Runner
	t    *tracer
	l    *lane
	tick int64 // the scheduler tick being stepped: the spans' shared id
	// Rows fed: prefill tokens (prompt plus any output replayed after a
	// preemption, counted again in replayTok) and decoded sequences.
	prefillTok, replayTok, decodeRows, decodes int64
}

func (r *runnerSpans) Prefill(seqs []*serve.SeqState) {
	for _, s := range seqs {
		r.prefillTok += int64(len(s.Req.Prompt) + len(s.Output))
		r.replayTok += int64(len(s.Output))
	}
	r.t.timedAs(r.l, kindServe, "serve.prefill", r.tick, func() { r.Runner.Prefill(seqs) })
}

func (r *runnerSpans) DecodeStep(seqs []*serve.SeqState) {
	r.decodeRows += int64(len(seqs))
	r.decodes++
	r.t.timedAs(r.l, kindServe, "serve.decode", r.tick, func() { r.Runner.DecodeStep(seqs) })
}

// instrumentCluster installs the tracer on a training cluster from the
// outside: Cluster.Attach wires its registry (which also gives every rank
// an attention census recorder), then the tracer takes the world's
// Recorder and Meter and every executor's Observer, forwarding to the
// registry. Every stage fragment, the batcher and the shard planner
// closure get a span wrapper. Call it while no step is running.
func instrumentCluster(t *tracer, cl *core.Cluster) {
	cl.Attach(t.Registry)
	cl.World.Recorder = t
	cl.World.Meter = t
	for _, r := range cl.Ranks {
		l := t.lanes[r.ID]
		r.Exec.Obs = t
		for _, st := range r.Exec.Stages {
			if st.Embed != nil {
				st.Embed = embedSpans{st.Embed, t, l}
			}
			for i, ly := range st.Layers {
				st.Layers[i] = layerSpans{ly, t, l}
			}
			if st.Head != nil {
				st.Head = headSpans{st.Head, t, l}
			}
		}
	}
	cl.Cfg.ShardPlanner = t.wrapPlanner(cl.Cfg.ShardPlanner)
}

// opWindows returns the lane's op spans (in order) with each start moved
// back to where the op may have begun. The Observer reports an op after
// its end and after sampling live activations, so end−dur is up to that
// delay late; the window reaches back to the previous op's report, or at
// most 1 ms for a lane's first op.
func opWindows(ops []span) []span {
	out := make([]span, len(ops))
	for i, op := range ops {
		op.Start -= int64(time.Millisecond)
		if i > 0 {
			op.Start = max(op.Start, ops[i-1].End)
		}
		out[i] = op
	}
	return out
}

// spanOut is the written form of a span, with its parent resolved.
type spanOut struct {
	Lane    int    `json:"lane"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"` // index of the enclosing span in the file, -1 for none
}

// writeSpans writes the header (the run's host stamp) and then every span
// as one JSON line to path, op spans as their windows (see opWindows). A
// span's parent is the innermost span of the same lane whose interval
// contains it — comm spans under layers, layers under ops — given as its
// index among the span lines.
func (t *tracer) writeSpans(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	n := 0
	for li, l := range t.lanes {
		l.mu.Lock()
		var ss, ops []span
		for _, s := range l.spans {
			if s.Kind == kindOp {
				ops = append(ops, s)
			} else {
				ss = append(ss, s)
			}
		}
		l.mu.Unlock()
		ss = append(ss, opWindows(ops)...)
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		// Spans on the data and request lanes come from many goroutines at
		// once, so they do not nest.
		nests := li < t.ranks() || li == t.ranks()+laneMain
		var stack []int // file indices of open ancestors, with their ends
		var ends []int64
		for _, s := range ss {
			for len(stack) > 0 && (ends[len(ends)-1] < s.End || !nests) {
				stack, ends = stack[:len(stack)-1], ends[:len(ends)-1]
			}
			parent := -1
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			if err := enc.Encode(spanOut{li, s.Kind, s.Name, s.ID, s.Start / 1e3, s.End / 1e3, parent}); err != nil {
				f.Close()
				return err
			}
			stack, ends = append(stack, n), append(ends, s.End)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The tracer implements the program's hook interfaces; OverlapRecorder in
// particular, so handle ops reach RecordOverlap rather than the
// exposed-only RecordComm fallback.
var (
	_ comm.OverlapRecorder = (*tracer)(nil)
	_ comm.Meter           = (*tracer)(nil)
	_ pp.Observer          = (*tracer)(nil)
)

// runtimeStats is a runtime.ReadMemStats snapshot of the figures the
// runtime layer reports.
type runtimeStats struct{ allocMB, gcCount, gcPauseMS float64 }

func readRuntime() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{float64(m.TotalAlloc) / (1 << 20), float64(m.NumGC), float64(m.PauseTotalNs) / 1e6}
}
