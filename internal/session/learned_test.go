package session

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
)

var updateLearned = flag.Bool("update", false, "rewrite testdata/learned.golden from the current code")

const learnedGolden = "testdata/learned.golden"

// learnedShortCells are the cells -short checks: CNN and NMT models at 2, 4
// and 8 GPUs, cheap enough for the race detector.
var learnedShortCells = map[string]bool{
	"LeNet@2": true, "AlexNet@4": true, "RNNLM@8": true, "VGG-19@2": true, "GNMT@4": true,
}

// learnedCell bootstraps one catalog cell the way `fastt compute -seed 1
// -workers 1` does and returns "<cell> <artifact sha256> <costs sha256>":
// the hashes of the artifact file and of the -save-costs file it writes.
func learnedCell(t *testing.T, spec models.Spec, gpus int) string {
	t.Helper()
	cell := fmt.Sprintf("%s@%d", spec.Name, gpus)
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatalf("%s: SingleServer: %v", cell, err)
	}
	per := spec.GlobalBatch / gpus
	if per < 1 {
		per = 1
	}
	m, err := spec.Build(per)
	if err != nil {
		t.Fatalf("%s: Build: %v", cell, err)
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		t.Fatalf("%s: BuildDataParallel: %v", cell, err)
	}
	s, err := New(cluster, simExec(cluster), g, Config{Seed: 1,
		Sched: core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}})
	if err != nil {
		t.Fatalf("%s: New: %v", cell, err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("%s: Bootstrap: %v", cell, err)
	}
	art := *s.ActiveArtifact()
	art.Provenance.Model = spec.Name
	var artJSON, costJSON bytes.Buffer
	if err := art.WriteJSON(&artJSON); err != nil {
		t.Fatalf("%s: artifact: %v", cell, err)
	}
	if err := s.SaveCosts(&costJSON); err != nil {
		t.Fatalf("%s: SaveCosts: %v", cell, err)
	}
	return fmt.Sprintf("%s %x %x", cell, sha256.Sum256(artJSON.Bytes()), sha256.Sum256(costJSON.Bytes()))
}

// TestLearnedGolden pins what a bootstrap learns on every single-server
// catalog cell (strong scaling over {2,4,8} GPUs): the SHA-256 of the
// bootstrapped strategy artifact and of the saved cost models. The cost
// models feed every strategy, so a change to how they learn or predict
// shows up here first. -short checks learnedShortCells only. Regenerate
// with `go test ./internal/session -run TestLearnedGolden -update` only for
// an intended change in what is learned.
func TestLearnedGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateLearned {
		f, err := os.Open(filepath.FromSlash(learnedGolden))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			cell, _, _ := strings.Cut(sc.Text(), " ")
			want[cell] = sc.Text()
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(want) != 3*len(models.Catalog()) {
			t.Fatalf("golden has %d cells, want %d", len(want), 3*len(models.Catalog()))
		}
	}
	var lines bytes.Buffer
	for _, spec := range models.Catalog() {
		for _, gpus := range []int{2, 4, 8} {
			cell := fmt.Sprintf("%s@%d", spec.Name, gpus)
			if testing.Short() && !*updateLearned && !learnedShortCells[cell] {
				continue
			}
			got := learnedCell(t, spec, gpus)
			if *updateLearned {
				fmt.Fprintln(&lines, got)
			} else if got != want[cell] {
				t.Errorf("learned state changed:\n got %s\nwant %s", got, want[cell])
			}
		}
	}
	if *updateLearned {
		if err := os.WriteFile(filepath.FromSlash(learnedGolden), lines.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
