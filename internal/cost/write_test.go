package cost

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sort"
	"testing"
	"time"

	"fastt/internal/device"
)

// writeModelOracle is the encoding/json writer WriteJSON replaced, and the
// reference for its bytes and its errors.
func writeModelOracle(m *Model, w io.Writer) error {
	doc := jsonModel{}

	m.Comp.mu.RLock()
	for k, s := range m.Comp.stats {
		doc.Comp = append(doc.Comp, jsonCompEntry{
			Name: k.name, Dev: k.dev, N: s.n, Mean: s.mean, M2: s.m2,
		})
	}
	m.Comp.mu.RUnlock()
	sort.Slice(doc.Comp, func(i, j int) bool {
		if doc.Comp[i].Name != doc.Comp[j].Name {
			return doc.Comp[i].Name < doc.Comp[j].Name
		}
		return doc.Comp[i].Dev < doc.Comp[j].Dev
	})

	m.Link.mu.RLock()
	for k, acc := range m.Link.pairs {
		doc.Comm = append(doc.Comm, jsonCommEntry{
			From: k.from, To: k.to, N: acc.n,
			SumX: acc.sumX, SumY: acc.sumY,
			SumXX: acc.sumXX, SumXY: acc.sumXY,
			MinX: acc.minX, MaxX: acc.maxX,
		})
	}
	m.Link.mu.RUnlock()
	sort.Slice(doc.Comm, func(i, j int) bool {
		if doc.Comm[i].From != doc.Comm[j].From {
			return doc.Comm[i].From < doc.Comm[j].From
		}
		return doc.Comm[i].To < doc.Comm[j].To
	})

	return json.NewEncoder(w).Encode(doc)
}

// checkWriteMatchesOracle fails unless WriteJSON and the oracle agree on m:
// the same bytes, or both an error with nothing written.
func checkWriteMatchesOracle(t *testing.T, m *Model) {
	t.Helper()
	var got, want bytes.Buffer
	err := m.WriteJSON(&got)
	werr := writeModelOracle(m, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("WriteJSON error %v, oracle error %v", err, werr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON and the oracle disagree:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// setComp stores exact statistics for (name, dev), bypassing Observe so a
// case can pick any float.
func setComp(m *Model, name string, dev int, n int64, mean, m2 float64) {
	*m.Comp.statsOf(name, dev).exact = runningStat{n: n, mean: mean, m2: m2}
}

func TestWriteJSONMatchesOracle(t *testing.T) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	cases := []struct {
		name    string
		fill    func(m *Model)
		wantErr bool
	}{
		{name: "empty model writes null", fill: func(*Model) {}},
		{name: "only comp entries", fill: func(m *Model) {
			m.Comp.Observe("conv1", 1, 1500*time.Microsecond)
			m.Comp.Observe("conv1", 0, 1400*time.Microsecond)
			m.Comp.Observe("conv1", 0, 1700*time.Microsecond)
			m.Comp.Observe("b", 3, 7)
		}},
		{name: "only comm entries", fill: func(m *Model) {
			m.Link.Observe(2, 1, 1<<20, 3*time.Millisecond)
			m.Link.Observe(0, 1, 1<<10, 40*time.Microsecond)
			m.Link.Observe(0, 1, 1<<22, 9*time.Millisecond)
		}},
		{name: "both, with devices outside the cluster", fill: func(m *Model) {
			m.Comp.Observe("fc", 9, time.Millisecond)
			m.Comp.Observe("fc", -1, 2*time.Millisecond)
			m.Link.Observe(3, 0, 100, time.Microsecond)
		}},
		{name: "names that need escaping", fill: func(m *Model) {
			for i, name := range []string{`a<b>&c`, `say "hi"`, `back\slash`, "tab\there\n",
				"ünïcödé/層", "line\u2028sep", "bad\xffutf8", "\x00nul", ""} {
				m.Comp.Observe(name, i%4, time.Duration(i+1)*time.Microsecond)
			}
		}},
		{name: "floats in e-notation and at the cut-offs", fill: func(m *Model) {
			setComp(m, "tiny", 0, 1, 1e-7, 1.5e-300)
			setComp(m, "huge", 0, 1, 1e21, 1.7976931348623157e308)
			setComp(m, "edges", 0, 1, 1e-6, 9.999999999999999e20)
			setComp(m, "neg", 0, 1, -2.5e-9, -1e22)
			setComp(m, "zero", 0, 1, math.Copysign(0, -1), 0)
			setComp(m, "frac", 0, 3, 1000.6666666666666, 0.1+0.2)
			*entry(m.Link.pairs, pairKey{from: 0, to: 1}) = olsAccumulator{n: 2,
				sumX: 5e-324, sumY: 1e-7, sumXX: 1e21, sumXY: 123456789e12, minX: -0.0000001, maxX: 1e300}
		}},
		{name: "NaN mean is refused", wantErr: true, fill: func(m *Model) {
			setComp(m, "x", 0, 1, math.NaN(), 0)
		}},
		{name: "infinite m2 is refused", wantErr: true, fill: func(m *Model) {
			m.Comp.Observe("a", 1, time.Millisecond)
			setComp(m, "x", 0, 2, 1, math.Inf(1))
		}},
		{name: "infinite comm sum is refused", wantErr: true, fill: func(m *Model) {
			m.Comp.Observe("a", 1, time.Millisecond)
			*entry(m.Link.pairs, pairKey{from: 1, to: 2}) = olsAccumulator{n: 1, sumXX: math.Inf(-1)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(cluster)
			tc.fill(m)
			checkWriteMatchesOracle(t, m)
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); (err != nil) != tc.wantErr {
				t.Fatalf("WriteJSON error %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

// TestWriteJSONEmptyIsNull pins the empty model's document literally.
func TestWriteJSONEmptyIsNull(t *testing.T) {
	var buf bytes.Buffer
	if err := NewModel(snapCluster(t)).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if want := "{\"comp\":null,\"comm\":null}\n"; buf.String() != want {
		t.Fatalf("empty model writes %q, want %q", buf.String(), want)
	}
}

// TestWriteJSONLargeModelMatchesOracle writes a model larger than the
// encoder's buffer, so the document is flushed in several chunks.
func TestWriteJSONLargeModelMatchesOracle(t *testing.T) {
	cluster, err := device.SingleServer(8)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	m := NewModel(cluster)
	for i := 0; i < 3000; i++ {
		m.Comp.Observe("op/"+string(rune('a'+i%26))+"/"+time.Duration(i).String(), i%8, time.Duration(i*7919+1))
	}
	for from := 0; from < 8; from++ {
		for to := 0; to < 8; to++ {
			m.Link.Observe(from, to, int64(from*to+1)<<10, time.Duration(from+to+1)*time.Microsecond)
		}
	}
	checkWriteMatchesOracle(t, m)
}
