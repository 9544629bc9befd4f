package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/narrative.golden from the current code")

const golden = "testdata/narrative.golden"

// TestElasticExample pins the whole loss-then-join narrative: the seeded
// failure, the degraded survivors, the A100 join's checkpoint restore,
// recompute and charge, and the resumed training. Every number in it is
// simulated, so a change to what the session measures, activates or
// charges shows up here. Regenerate with `go test ./examples/elastic
// -update` only for an intended change.
func TestElasticExample(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := maskWall(buf.String())
	path := filepath.FromSlash(golden)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("narrative changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// maskWall drops the wall-clock measurement from the recompute line; it is
// the one real-time (non-simulated) number in the narrative.
func maskWall(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if j := strings.Index(l, " wall)"); j >= 0 {
			if k := strings.LastIndex(l[:j], ", "); k >= 0 {
				lines[i] = l[:k] + ")"
			}
		}
	}
	return strings.Join(lines, "\n")
}
