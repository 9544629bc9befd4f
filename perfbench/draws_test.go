package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
)

func TestDrawsAreDeterministic(t *testing.T) {
	gpus := []int{2, 2, 4, 4, 2, 4}
	if !reflect.DeepEqual(missPlan(7, 300, gpus), missPlan(7, 300, gpus)) {
		t.Error("serve-miss plan differs between two draws of one seed")
	}
	if reflect.DeepEqual(missPlan(7, 300, gpus), missPlan(8, 300, gpus)) {
		t.Error("serve-miss plans of two seeds are equal")
	}
	hit1, rank1 := hitPlan(7, 3000, 960, 64)
	hit2, rank2 := hitPlan(7, 3000, 960, 64)
	if !reflect.DeepEqual(hit1, hit2) || !reflect.DeepEqual(rank1, rank2) {
		t.Error("serve-hit plan differs between two draws of one seed")
	}
	if hit3, _ := hitPlan(8, 3000, 960, 64); reflect.DeepEqual(hit1, hit3) {
		t.Error("serve-hit plans of two seeds are equal")
	}
	passes := func(seed int64) [][]trainDraw {
		rng := rand.New(rand.NewSource(seed))
		var out [][]trainDraw
		for range trainMinPasses {
			out = append(out, trainPass(rng, 27))
		}
		return out
	}
	if !reflect.DeepEqual(passes(7), passes(7)) {
		t.Error("train passes differ between two draws of one seed")
	}
	// Every pass runs every cell's one session once, and seeds move only
	// the order.
	byCell := func(pass []trainDraw) []trainDraw {
		sorted := slices.Clone(pass)
		slices.SortFunc(sorted, func(a, b trainDraw) int { return a.cell - b.cell })
		return sorted
	}
	first := byCell(passes(7)[0])
	for p, pass := range append(passes(7), passes(8)...) {
		if !slices.Equal(byCell(pass), first) {
			t.Errorf("pass %d runs other sessions than the first", p)
		}
	}
	if reflect.DeepEqual(passes(7), passes(8)) {
		t.Error("train passes of two seeds are equal")
	}
}

// TestMissPlanKeysAreNew: every serve-miss request must be a new cache key.
func TestMissPlanKeysAreNew(t *testing.T) {
	gpus := make([]int, 36)
	for i := range gpus {
		gpus[i] = 2 + 2*(i%2)
	}
	plan := missPlan(3, 200, gpus)
	seen := map[missDraw]bool{}
	resizes := 0
	for i, d := range plan {
		if d.resize {
			resizes++
		}
		if seen[d] {
			t.Fatalf("request %d repeats key %+v", i, d)
		}
		seen[d] = true
	}
	if want := len(plan) / resizeEvery; resizes != want {
		t.Errorf("%d resizes in %d requests, want %d", resizes, len(plan), want)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the runner's metric and workload
// names and units in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	table := func(ms []metric) []entry {
		var out []entry
		for _, m := range ms {
			out = append(out, entry{m.name, m.unit})
		}
		return out
	}
	if got := table(endToEnd); !reflect.DeepEqual(got, doc.EndToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, doc.EndToEnd)
	}
	if got := table(perLayer); !reflect.DeepEqual(got, doc.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, doc.PerLayer)
	}
	var names []entry
	for _, w := range workloads {
		names = append(names, entry{Name: w.name})
	}
	if !reflect.DeepEqual(names, doc.Workloads) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, doc.Workloads)
	}
}
