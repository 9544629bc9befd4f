package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/narrative.golden from the current code")

const golden = "testdata/narrative.golden"

// TestDriftRecoveryExample pins the whole drift narrative: the healthy
// run, the throttled GPU's drift checks and recomputes, and the reloaded
// cost models. The narrative holds simulated numbers only, so it is
// compared byte for byte. Regenerate with `go test
// ./examples/driftrecovery -update` only for an intended change.
func TestDriftRecoveryExample(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.FromSlash(golden)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("narrative changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
