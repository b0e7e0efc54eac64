package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"llama4d/internal/model"
)

// searchGoldenPath holds the full ranked plan lists and census of the
// golden requests, every float64 stored as its IEEE-754 bit pattern. It was
// produced by the search before candidate pricing was reworked to scale with
// pipeline stages; the rework must reproduce it bit for bit. Regenerate it
// only for a change that means to move the ranking or its numbers, by
// writing searchGolden() to the path.
const searchGoldenPath = "testdata/search_golden.json"

// perfRequest is the 8B planning request of the perfbench plan workload
// (16 GPUs in two 8-GPU hosts, 8K context, 24 GiB so the memory prune
// fires), without the workload's per-seed bandwidth perturbation.
func perfRequest() Request {
	r := Production405B(8192)
	r.Model = model.Llama3_8B()
	r.NGPUs = 16
	r.GlobalTokens = 64 << 10
	r.HBMBudgetGiB = 24
	return r
}

// bitsOf renders v for a bitwise golden: every float64 becomes its bit
// pattern, a struct the list of its fields' renderings.
func bitsOf(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Struct:
		out := make([]any, v.NumField())
		for i := range out {
			out[i] = bitsOf(v.Field(i))
		}
		return out
	}
	return v.Interface()
}

// fieldNames lists a struct type's field names, the column header of its
// renderings.
func fieldNames(t reflect.Type) []string {
	out := make([]string, t.NumField())
	for i := range out {
		out[i] = t.Field(i).Name
	}
	return out
}

// searchGolden runs the golden requests and renders their census and ranked
// plans as JSON, one plan per line.
func searchGolden() ([]byte, error) {
	reqs := []struct {
		name string
		r    Request
	}{{"small", smallRequest()}, {"perf8B", perfRequest()}}
	var b strings.Builder
	line := func(prefix string, v any, suffix string) error {
		j, err := json.Marshal(v)
		b.WriteString(prefix)
		b.Write(j)
		b.WriteString(suffix + "\n")
		return err
	}
	if err := line("{\"statsFields\": ", fieldNames(reflect.TypeOf(Stats{})), ","); err != nil {
		return nil, err
	}
	if err := line("\"planFields\": ", fieldNames(reflect.TypeOf(Plan{})), ","); err != nil {
		return nil, err
	}
	for i, q := range reqs {
		plans, st := SearchWithStats(q.r)
		if err := line(fmt.Sprintf("%q: {\"stats\": ", q.name), bitsOf(reflect.ValueOf(st)), ", \"plans\": ["); err != nil {
			return nil, err
		}
		for j, p := range plans {
			sep := ","
			if j == len(plans)-1 {
				sep = ""
			}
			if err := line("", bitsOf(reflect.ValueOf(p)), sep); err != nil {
				return nil, err
			}
		}
		end := "]},\n"
		if i == len(reqs)-1 {
			end = "]}}\n"
		}
		b.WriteString(end)
	}
	return []byte(b.String()), nil
}

// TestSearchMatchesGolden pins the whole search output — every feasible
// plan, its rank, every priced float to the bit, and the census — to the
// committed golden.
func TestSearchMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := searchGolden()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d differs:\n  got  %s\n  want %s", searchGoldenPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, search renders %d", searchGoldenPath, len(w), len(g))
}
