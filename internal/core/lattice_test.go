package core

import (
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// TestLatticeMatchesEstimator checks every dense lattice entry against a
// direct estimator resolution, catalog-wide: exec rows and their extrema per
// op, comm grids and their maxima per edge. Comm-class dedup must be
// invisible — an edge's grid is the same whether it shares a class or owns
// one.
func TestLatticeMatchesEstimator(t *testing.T) {
	cluster, err := device.SingleServer(3)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	devs := cluster.Devices()
	nd := len(devs)
	for _, spec := range models.Catalog() {
		g, err := spec.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := contextFor(g)
		if err != nil {
			t.Fatal(err)
		}
		lat := latticeFor(ctx, cluster, est)
		for id := 0; id < ctx.nOps; id++ {
			op := ctx.op(id)
			var maxW, minW int64
			for d := 0; d < nd; d++ {
				want := est.Exec(op, devs[d])
				if got := lat.execAt(id, d); got != want {
					t.Fatalf("%s: exec(%q, dev %d) = %v, want %v",
						spec.Name, op.Name, d, got, want)
				}
				if int64(want) > maxW {
					maxW = int64(want)
				}
				if d == 0 || int64(want) < minW {
					minW = int64(want)
				}
			}
			if int64(lat.wAt(id)) != maxW || int64(lat.minWAt(id)) != minW {
				t.Fatalf("%s: op %q extrema (%v,%v), want (%v,%v)",
					spec.Name, op.Name, lat.wAt(id), lat.minWAt(id), maxW, minW)
			}
		}
		for ei := 0; ei < ctx.numEdges(); ei++ {
			b := ctx.edgeAt(ei).Bytes
			var maxC int64
			for f := 0; f < nd; f++ {
				for to := 0; to < nd; to++ {
					want := est.Comm(b, devs[f], devs[to])
					if f == to {
						want = 0
					}
					if got := lat.commAt(ei, f, to); got != want {
						t.Fatalf("%s: comm(edge %d, %d->%d) = %v, want %v",
							spec.Name, ei, f, to, got, want)
					}
					if int64(want) > maxC {
						maxC = int64(want)
					}
				}
			}
			if int64(lat.maxCommAt(ei)) != maxC {
				t.Fatalf("%s: maxComm(edge %d) = %v, want %v",
					spec.Name, ei, lat.maxCommAt(ei), maxC)
			}
		}
	}
}

// TestExtendLatticeMatchesRebuild checks the O(Δ) overlay extension against
// a from-scratch direct-estimator build (buildDirectLattice) over the same
// overlay context: identical
// entries for every live op and every edge, old and new.
func TestExtendLatticeMatchesRebuild(t *testing.T) {
	cluster, err := device.SingleServer(3)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	devs := cluster.Devices()
	nd := len(devs)
	for _, spec := range models.Catalog() {
		g, err := spec.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := contextFor(g)
		if err != nil {
			t.Fatal(err)
		}
		base := latticeFor(ctx, cluster, est)
		tested := false
		for opID := 0; opID < g.NumOps() && !tested; opID++ {
			dims := g.Op(opID).SplittableDims()
			if len(dims) == 0 {
				continue
			}
			ov, err := graph.NewSplitOverlay(g, opID, dims[0], 2)
			if err != nil {
				continue
			}
			tested = true
			octx := overlayContext(ctx, ov)
			ext := extendLattice(base, octx, devs, est)
			ref := buildDirectLattice(octx, devs, est)
			for id := 0; id < octx.nOps; id++ {
				if id == octx.dead {
					continue
				}
				for d := 0; d < nd; d++ {
					if ext.execAt(id, d) != ref.execAt(id, d) {
						t.Fatalf("%s: exec(%d, %d): ext %v, rebuild %v",
							spec.Name, id, d, ext.execAt(id, d), ref.execAt(id, d))
					}
				}
				if ext.wAt(id) != ref.wAt(id) || ext.minWAt(id) != ref.minWAt(id) {
					t.Fatalf("%s: op %d extrema ext (%v,%v), rebuild (%v,%v)",
						spec.Name, id, ext.wAt(id), ext.minWAt(id), ref.wAt(id), ref.minWAt(id))
				}
			}
			for ei := 0; ei < octx.numEdges(); ei++ {
				if ext.maxCommAt(ei) != ref.maxCommAt(ei) {
					t.Fatalf("%s: maxComm(edge %d): ext %v, rebuild %v",
						spec.Name, ei, ext.maxCommAt(ei), ref.maxCommAt(ei))
				}
				for f := 0; f < nd; f++ {
					for to := 0; to < nd; to++ {
						if ext.commAt(ei, f, to) != ref.commAt(ei, f, to) {
							t.Fatalf("%s: comm(edge %d, %d->%d): ext %v, rebuild %v",
								spec.Name, ei, f, to,
								ext.commAt(ei, f, to), ref.commAt(ei, f, to))
						}
					}
				}
			}
			releaseLattice(ext)
			releaseOverlayContext(octx)
		}
		if !tested {
			t.Fatalf("%s: no splittable op; extension untested", spec.Name)
		}
	}
}

// TestOSDPOSLatticeEquivalence pins comm-class dedup at the level of the
// whole search: catalog-wide, the sequential Alg. 2 walk over clones must
// choose the same splits, schedule and candidate count whether each clone
// is scheduled on the production comm-class lattice (buildLattice) or on a
// direct estimator resolution with one grid per edge (buildDirectLattice).
func TestOSDPOSLatticeEquivalence(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:3]
	}
	for _, spec := range catalog {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			base := Options{MaxSplitOps: 2, MaxSyncGroups: 2}
			want, err := osdposOracleOn(g, cluster, oracle, base, buildDirectLattice)
			if err != nil {
				t.Fatalf("direct-estimator reference: %v", err)
			}
			got, err := osdposOracleOn(g, cluster, oracle, base, buildLattice)
			if err != nil {
				t.Fatalf("comm-class lattice: %v", err)
			}
			assertSameStrategy(t, "comm-class", want, got)
			if got.Evaluated != want.Evaluated {
				t.Errorf("comm-class: Evaluated=%d, direct-estimator reference %d",
					got.Evaluated, want.Evaluated)
			}
		})
	}
}
