package trace

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// TestChromeJSONRoundTripExact round-trips a trace whose timestamps are
// dyadic rationals (exact in binary floating point through the µs scaling),
// asserting field-for-field equality.
func TestChromeJSONRoundTripExact(t *testing.T) {
	src := &Trace{Events: []Event{
		{Rank: 0, Kind: Compute, Name: "F s0 mb0", Start: 0, Dur: 0.5},
		{Rank: 3, Kind: Comm, Group: "tp", Name: "tp.collective", Start: 0.25, Dur: 0.125},
		{Rank: 1, Kind: Idle, Group: "pp", Name: "bubble", Start: 1.5, Dur: 2},
		{Rank: 2, Kind: Fault, Group: "ft", Name: "crash", Start: 4, Dur: 0},
	}}
	var buf bytes.Buffer
	if err := src.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	got, err := ReadChromeJSON(&buf)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(got.Events) != len(src.Events) {
		t.Fatalf("got %d events, want %d", len(got.Events), len(src.Events))
	}
	for i, e := range src.Events {
		if got.Events[i] != e {
			t.Errorf("event %d: got %+v, want %+v", i, got.Events[i], e)
		}
	}
}

// TestReadChromeJSONSkipsMetadata verifies non-"X" phase records (Chrome
// metadata) are ignored rather than misparsed.
func TestReadChromeJSONSkipsMetadata(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"dur":0,"pid":0,"tid":0},
		{"name":"work","cat":"compute:","ph":"X","ts":1000000,"dur":500000,"pid":0,"tid":7}]}`
	tr, err := ReadChromeJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(tr.Events))
	}
	want := Event{Rank: 7, Kind: Compute, Name: "work", Start: 1, Dur: 0.5}
	if tr.Events[0] != want {
		t.Errorf("got %+v, want %+v", tr.Events[0], want)
	}
}

// TestTraceConcurrentAdd hammers one Trace from many goroutines mixing Add
// with every read method — the race-detector target for the shared-trace
// fix (run via `make race`).
func TestTraceConcurrentAdd(t *testing.T) {
	tr := &Trace{}
	const ranks, perRank = 8, 200
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				tr.Add(Event{Rank: rank, Kind: Compute, Name: "op", Start: float64(i), Dur: 1})
				if i%17 == 0 {
					tr.RankEvents(rank)
					tr.Makespan()
					tr.TotalDur(rank, Compute, "")
					tr.Ranks()
					tr.ASCIITimeline(rank, 16)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := len(tr.Events); got != ranks*perRank {
		t.Fatalf("got %d events, want %d", got, ranks*perRank)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorConcurrentRecord covers the Collector path used by live runs
// (comm.Recorder + metrics events) under concurrency.
func TestCollectorConcurrentRecord(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.RecordComm(rank, "tp", 0.001)
				c.RecordEvent(Event{Rank: rank, Kind: Compute, Name: "op"})
				if i%25 == 0 {
					c.Snapshot()
				}
			}
		}(r)
	}
	wg.Wait()
	if got := len(c.Snapshot().Events); got != 8*200 {
		t.Fatalf("got %d events, want %d", got, 8*200)
	}
}

// FuzzChromeJSONRoundTrip asserts export→import preserves every event for
// any finite, valid-UTF-8 input. The µs scaling may cost a few ulps on
// arbitrary floats, so times compare with a tight relative tolerance.
// Inputs the JSON encoding cannot represent faithfully are skipped: NaN/Inf
// (encoding/json rejects them), invalid UTF-8 (replaced with U+FFFD), and
// kinds containing ':' (the cat-field separator).
func FuzzChromeJSONRoundTrip(f *testing.F) {
	f.Add(0, "compute", "F s0 mb0", "", 0.0, 1.0)
	f.Add(3, "comm", "tp.collective", "tp", 0.1, 0.003)
	f.Add(-1, "idle", "wait: stage", "p:p", 1e-9, 1e300)
	f.Add(1<<20, "fault", "crash ☠", "ft", 123.456, 0.0)
	f.Fuzz(func(t *testing.T, rank int, kind, name, group string, start, dur float64) {
		if !utf8.ValidString(kind) || !utf8.ValidString(name) || !utf8.ValidString(group) {
			t.Skip("json replaces invalid UTF-8")
		}
		if strings.ContainsRune(kind, ':') {
			t.Skip("kind is the prefix of the cat field; ':' is its separator")
		}
		for _, v := range []float64{start, dur} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("json rejects non-finite numbers")
			}
			if v != 0 && math.Abs(v) > math.MaxFloat64/1e6 {
				t.Skip("µs scaling overflows")
			}
		}
		src := &Trace{Events: []Event{{Rank: rank, Kind: Kind(kind), Name: name, Group: group, Start: start, Dur: dur}}}
		var buf bytes.Buffer
		if err := src.WriteChromeJSON(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		got, err := ReadChromeJSON(&buf)
		if err != nil {
			t.Fatalf("import: %v", err)
		}
		if len(got.Events) != 1 {
			t.Fatalf("got %d events, want 1", len(got.Events))
		}
		e := got.Events[0]
		if e.Rank != rank || string(e.Kind) != kind || e.Name != name || e.Group != group {
			t.Errorf("identity fields: got %+v", e)
		}
		closeEnough := func(got, want float64) bool {
			if got == want {
				return true
			}
			return math.Abs(got-want) <= 1e-12*math.Abs(want)
		}
		if !closeEnough(e.Start, start) || !closeEnough(e.Dur, dur) {
			t.Errorf("times: got (%v, %v), want (%v, %v)", e.Start, e.Dur, start, dur)
		}
	})
}
