package core

import (
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// BenchmarkSplitCandidate isolates the per-candidate evaluation cost OS-DPOS
// pays in its inner loop — construct the split, derive priorities, run DPOS —
// comparing the reference clone path against the copy-on-write overlay path.
// Pruning is off in both so the two do the same scheduling work and the
// difference is pure construction/rank overhead.
func BenchmarkSplitCandidate(b *testing.B) {
	const gpus = 8
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		b.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	spec, err := models.ByName("Transformer")
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Build(gpus)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		b.Fatal(err)
	}
	baseCtx, err := newScheduleContext(g)
	if err != nil {
		b.Fatal(err)
	}
	baseLat := buildLattice(baseCtx, cluster.Devices(), est)
	baseRanks := computeRanksCtx(baseCtx, baseLat)
	defer releaseRanks(baseRanks)

	// Use the scheduler's own notion of a candidate: the top op on the
	// placed critical path, batch-split across all devices.
	base, err := dposCtx(baseCtx, cluster, baseLat, Options{}, baseRanks, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	cp, cpRanks := placedCriticalPath(baseCtx, baseLat, base)
	releaseRanks(cpRanks)
	releaseSchedule(base)
	target := -1
	for _, id := range cp {
		if len(g.Op(id).SplittableDims()) > 0 {
			target = id
			break
		}
	}
	if target < 0 {
		b.Fatal("no splittable op on the critical path")
	}
	dim := g.Op(target).SplittableDims()[0]

	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cand, err := graph.SplitOperation(g, target, dim, gpus)
			if err != nil {
				b.Fatal(err)
			}
			s, err := DPOS(cand, cluster, est, Options{})
			if err != nil {
				b.Fatal(err)
			}
			releaseSchedule(s)
		}
	})
	b.Run("overlay", func(b *testing.B) {
		anc := ancestorsOf(baseCtx, target)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ov, err := graph.NewSplitOverlay(g, target, dim, gpus)
			if err != nil {
				b.Fatal(err)
			}
			octx := overlayContext(baseCtx, ov)
			clat := extendLattice(baseLat, octx, cluster.Devices(), est)
			ranks := deltaRanksOverlay(baseCtx, baseRanks, octx, anc, clat)
			s, err := dposCtx(octx, cluster, clat, Options{}, ranks, 0, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			releaseSchedule(s)
			releaseRanks(ranks)
			releaseExtension(clat)
			releaseContext(octx)
		}
	})
}
