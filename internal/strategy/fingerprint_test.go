package strategy_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/strategy"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from the current encoder")

const fingerprintsGolden = "testdata/fingerprints.golden"

// escapingGraph carries op names that exercise every string-escaping rule
// of the graph encoder: HTML-sensitive runes, control characters, invalid
// UTF-8 and the JavaScript line separators.
func escapingGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "in<put>&\"q\"", Kind: graph.KindInput, OutputBytes: 4, Replica: -1})
	b := g.MustAddOp(&graph.Op{Name: "tab\there\x01\x1f\\", Kind: graph.KindRelu, Batch: 2,
		GradFor: "\u2028line\u2029", ColocateWith: "bad\xffutf8"})
	c := g.MustAddOp(&graph.Op{Name: "ünïcode→", Kind: graph.KindLoss, SplitOf: "x/y", SplitN: 2})
	d := g.MustAddOp(&graph.Op{Name: "a<b>&c", Kind: graph.KindIdentity, GradFor: "sep\u2028\u2029"})
	g.MustConnect(a, b, 4)
	g.MustConnect(b, c, 0)
	g.MustConnect(c, d, 1)
	return g
}

// goldenFingerprints computes one "<cell> <fingerprint>" line per catalog
// model × {2,4,8} strong-scaling replicas, plus the escaping graph.
func goldenFingerprints(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, spec := range models.Catalog() {
		for _, n := range []int{2, 4, 8} {
			per := spec.GlobalBatch / n
			if per < 1 {
				per = 1
			}
			m, err := spec.Build(per)
			if err != nil {
				t.Fatalf("%s: Build: %v", spec.Name, err)
			}
			g, err := graph.BuildDataParallel(m, n)
			if err != nil {
				t.Fatalf("%s@%d: BuildDataParallel: %v", spec.Name, n, err)
			}
			lines = append(lines, fmt.Sprintf("%s@%d %s", spec.Name, n, strategy.Fingerprint(g)))
		}
	}
	return append(lines, "escaping "+strategy.Fingerprint(escapingGraph(t)))
}

// TestFingerprintsGolden pins strategy.Fingerprint for every catalog cell:
// persisted artifacts and serve cache keys carry fingerprints, so any
// change to the graph encoder's bytes must show up here first. Regenerate
// with `go test ./internal/strategy -run TestFingerprintsGolden -update`
// only for an intended format change.
func TestFingerprintsGolden(t *testing.T) {
	got := goldenFingerprints(t)
	if *updateGolden {
		data := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(filepath.FromSlash(fingerprintsGolden), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(filepath.FromSlash(fingerprintsGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fingerprint changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
