package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"

	"llama4d/internal/model"
)

// stepGoldenPath holds the simulated StepReports of the golden
// configurations, every float64 stored as its IEEE-754 bit pattern and the
// timeline's intervals as a SHA-256 digest of their fields and bits. It was
// produced before the per-layer cost was hoisted out of the per-stage loop;
// the simulation must reproduce it bit for bit. Regenerate it only for a
// change that means to move the step model, by writing stepGolden() to the
// path.
const stepGoldenPath = "testdata/step_golden.json"

// goldenSims are the pinned configurations: Table 2's two production rows
// and a small document-masked 8B configuration that exercises every other
// branch (TP, CP, PP and DP all > 1, MBS 2, selective recompute,
// hierarchical collectives, unbalanced stages).
func goldenSims() map[string]TrainSim {
	doc := Production8K()
	doc.Model = model.Llama3_8B()
	doc.TP, doc.CP, doc.PP, doc.DP = 2, 2, 2, 2
	doc.V, doc.NC, doc.NMB, doc.MBS = 2, 2, 4, 2
	doc.Seq, doc.DocMask, doc.AvgDocLen = 4096, true, 1024
	doc.Balanced, doc.Recompute, doc.HostSize = false, model.RecomputeSelective, 4
	return map[string]TrainSim{"prod8k": Production8K(), "prod128k": Production128K(), "docmask8b": doc}
}

// reportBits renders one StepReport for the golden.
func reportBits(r *StepReport) map[string]any {
	busy := make([]uint64, len(r.PerRankBusy))
	for i, b := range r.PerRankBusy {
		busy[i] = math.Float64bits(b)
	}
	h := sha256.New()
	for _, iv := range r.Timeline.Intervals {
		binary.Write(h, binary.LittleEndian, [6]uint64{
			uint64(iv.Rank), uint64(iv.Op.Kind), uint64(iv.Op.Stage), uint64(iv.Op.MB),
			math.Float64bits(iv.Start), math.Float64bits(iv.End),
		})
	}
	return map[string]any{
		"StepTime":       math.Float64bits(r.StepTime),
		"TFLOPsPerGPU":   math.Float64bits(r.TFLOPsPerGPU),
		"BubbleRatio":    math.Float64bits(r.BubbleRatio),
		"DPExposed":      math.Float64bits(r.DPExposed),
		"DPCommTotal":    math.Float64bits(r.DPCommTotal),
		"PerRankBusy":    busy,
		"Makespan":       math.Float64bits(r.Timeline.Makespan),
		"Intervals":      len(r.Timeline.Intervals),
		"IntervalDigest": hex.EncodeToString(h.Sum(nil)),
	}
}

// stepGolden simulates every golden configuration and renders the reports.
func stepGolden() ([]byte, error) {
	out := map[string]any{}
	for name, ts := range goldenSims() {
		rep, err := ts.Simulate()
		if err != nil {
			return nil, err
		}
		out[name] = reportBits(rep)
	}
	b, err := json.MarshalIndent(out, "", " ")
	return append(b, '\n'), err
}

// TestSimulateMatchesGolden pins the production and document-masked step
// simulations to the committed golden, bit for bit.
func TestSimulateMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(stepGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stepGolden()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("simulated step reports differ from %s:\ngot:\n%s", stepGoldenPath, got)
	}
}
