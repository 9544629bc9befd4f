package cost

import (
	"strings"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

func TestPersistRoundTrip(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	m.Comp.Observe("conv1", 0, 10*time.Millisecond)
	m.Comp.Observe("conv1", 0, 14*time.Millisecond)
	m.Comp.Observe("fc6", 1, 3*time.Millisecond)
	observeLine(m.Link, 0, 1, 10*time.Microsecond, 20e9, []int64{1 << 16, 1 << 20})

	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	restored := NewModel(c)
	if err := restored.ReadJSON(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	got, ok := restored.Comp.Lookup("conv1", 0)
	if !ok || got != 12*time.Millisecond {
		t.Errorf("restored conv1 = %v (ok=%v), want 12ms", got, ok)
	}
	op := &graph.Op{Name: "fc6", Kind: graph.KindMatMul}
	if got := restored.Exec(op, c.Device(1)); got != 3*time.Millisecond {
		t.Errorf("restored fc6 = %v, want 3ms", got)
	}
	// The fitted comm line survives.
	orig := m.Comm(1<<20, c.Device(0), c.Device(1))
	back := restored.Comm(1<<20, c.Device(0), c.Device(1))
	if orig != back {
		t.Errorf("restored comm = %v, want %v", back, orig)
	}
	// Class fallback is rebuilt too.
	if restored.Comm(1<<20, c.Device(1), c.Device(0)) == 0 {
		t.Error("intra-server class fallback not rebuilt after load")
	}
}

func TestPersistMergeCombinesObservations(t *testing.T) {
	c := twoServerCluster(t)
	a := NewModel(c)
	a.Comp.Observe("op", 0, 10*time.Millisecond)
	var sb strings.Builder
	if err := a.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	b := NewModel(c)
	b.Comp.Observe("op", 0, 30*time.Millisecond)
	if err := b.ReadJSON(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	got, ok := b.Comp.Lookup("op", 0)
	if !ok || got != 20*time.Millisecond {
		t.Errorf("merged mean = %v (ok=%v), want 20ms", got, ok)
	}
}

func TestPersistRejectsForeignDevices(t *testing.T) {
	big := twoServerCluster(t) // 4 devices
	m := NewModel(big)
	observeLine(m.Link, 0, 3, 10*time.Microsecond, 3e9, []int64{1 << 16, 1 << 20})
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	small, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	restored := NewModel(small)
	if err := restored.ReadJSON(strings.NewReader(sb.String())); err == nil {
		t.Error("accepted comm entries for devices outside the cluster")
	}
}

// TestPersistRejectedSnapshotMergesNothing loads snapshots that fail
// validation, or whose merge would leave a non-finite statistic, into a
// model that already holds statistics: each must be rejected and leave the
// model exactly as it was, including comp entries that precede the bad
// comm entry.
func TestPersistRejectedSnapshotMergesNothing(t *testing.T) {
	c := twoServerCluster(t) // 4 devices
	m := NewModel(c)
	m.Comp.Observe("conv1", 0, 10*time.Millisecond)
	observeLine(m.Link, 0, 1, 10*time.Microsecond, 20e9, []int64{1 << 16, 1 << 20})
	var before strings.Builder
	if err := m.WriteJSON(&before); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for name, doc := range map[string]string{
		"comm entry outside the cluster": `{"comp":[{"name":"conv1","dev":0,"n":3,"mean":5e6,"m2":1}],` +
			`"comm":[{"from":0,"to":1,"n":2,"sumX":3,"sumY":4,"sumXX":5,"sumXY":6,"minX":1,"maxX":2},{"from":9,"to":0,"n":1}]}`,
		"negative comm count": `{"comp":[{"name":"fc6","dev":1,"n":1,"mean":3e6}],` +
			`"comm":[{"from":0,"to":1,"n":-5,"sumX":3,"sumY":4,"sumXX":5,"sumXY":6,"minX":1,"maxX":2}]}`,
		"negative comp count": `{"comp":[{"name":"fc6","dev":1,"n":1,"mean":3e6},{"name":"x","dev":0,"n":-1}]}`,
		// Each entry is finite; their sums are not.
		"pair sums overflow": `{"comp":[{"name":"fc6","dev":1,"n":1,"mean":3e6}],` +
			`"comm":[{"from":0,"to":1,"n":1,"sumX":1e308},{"from":0,"to":1,"n":1,"sumX":1e308}]}`,
		"link-class sums overflow":  `{"comm":[{"from":0,"to":1,"n":1,"sumY":1e308},{"from":1,"to":0,"n":1,"sumY":1e308}]}`,
		"comp means overflow":       `{"comp":[{"name":"x","dev":0,"n":1,"mean":1e308},{"name":"x","dev":0,"n":1,"mean":-1e308}]}`,
		"any-device means overflow": `{"comp":[{"name":"x","dev":0,"n":1,"mean":1e308},{"name":"x","dev":2,"n":1,"mean":-1e308}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if err := m.ReadJSON(strings.NewReader(doc)); err == nil {
				t.Fatal("snapshot accepted")
			}
			var after strings.Builder
			if err := m.WriteJSON(&after); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			if after.String() != before.String() {
				t.Fatalf("rejected snapshot changed the model:\n%s\nvs\n%s", after.String(), before.String())
			}
		})
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	if err := m.ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("accepted malformed JSON")
	}
}

func TestMergeStatVarianceExact(t *testing.T) {
	// Merging two halves must equal observing the full series.
	series := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var full, left, right runningStat
	for i, x := range series {
		full.add(x)
		if i < 4 {
			left.add(x)
		} else {
			right.add(x)
		}
	}
	mergeStat(&left, right.n, right.mean, right.m2)
	if left.n != full.n || !close(left.mean, full.mean) || !close(left.m2, full.m2) {
		t.Errorf("merged = {%d %v %v}, want {%d %v %v}",
			left.n, left.mean, left.m2, full.n, full.mean, full.m2)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestPersistWriteDeterministic(t *testing.T) {
	// WriteJSON output is hashed as strategy-artifact provenance, so the
	// same learned state must serialize to the same bytes on every call
	// regardless of map iteration order.
	c := twoServerCluster(t)
	m := NewModel(c)
	for i, name := range []string{"zeta", "alpha", "mid", "conv", "pool"} {
		m.Comp.Observe(name, i%c.NumDevices(), time.Duration(i+1)*time.Millisecond)
		m.Comp.Observe(name, (i+1)%c.NumDevices(), time.Duration(i+2)*time.Millisecond)
	}
	for from := 0; from < c.NumDevices(); from++ {
		for to := 0; to < c.NumDevices(); to++ {
			if from != to {
				observeLine(m.Link, from, to, 10*time.Microsecond, 20e9, []int64{1 << 16, 1 << 20})
			}
		}
	}
	var first strings.Builder
	if err := m.WriteJSON(&first); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for i := 0; i < 20; i++ {
		var again strings.Builder
		if err := m.WriteJSON(&again); err != nil {
			t.Fatalf("WriteJSON #%d: %v", i, err)
		}
		if again.String() != first.String() {
			t.Fatalf("WriteJSON not deterministic on call %d:\n%s\nvs\n%s",
				i, again.String(), first.String())
		}
	}
}
