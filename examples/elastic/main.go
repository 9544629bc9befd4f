// elastic demonstrates elastic scale-out closing the loop on fault
// recovery: a Transformer trains on 4 V100s under a FastT strategy, one GPU
// dies mid-run and the session degrades to the 3 survivors (the fault
// recovery path), then a replacement A100 joins and the session grows back —
// it restores the latest checkpoint, grows the cluster (surviving device IDs
// unchanged, so the degraded strategy stays valid while the replacement is
// computed), recomputes the strategy with OS-DPOS on the restored
// mixed-class topology, and resumes training under it. A recompute that
// cannot beat the running strategy — say the joiner sits behind a slow
// cross-rack link — is discarded instead, so a join never slows training.
// The same seed always reproduces the same failure and the same recomputed
// strategy.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/session"
	"fastt/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		return err
	}
	model, err := models.Transformer(4096 / gpus)
	if err != nil {
		return err
	}
	train, err := graph.BuildDataParallel(model, gpus)
	if err != nil {
		return err
	}

	// The executor injects faults from a deterministic plan and can both
	// shrink (device loss) and grow (device join); none is armed yet, so
	// pre-training runs clean.
	exec := sim.DefaultExecutor(cluster)
	s, err := session.New(cluster, exec, train, session.Config{
		Seed:            7,
		CheckpointEvery: 5, // bound the iterations a failure or join rolls back
	})
	if err != nil {
		return err
	}
	if _, err := s.Bootstrap(); err != nil {
		return err
	}
	iter := s.BootstrapReport().FinalMeasured
	fmt.Fprintf(w, "bootstrapped on %d V100s: %v/iter\n", gpus, iter.Round(time.Microsecond))

	// Kill gpu2 a few iterations into normal training; the session recovers
	// onto the 3 survivors.
	failAt := exec.Epoch() + 5*iter + iter/3
	plan := &sim.FaultPlan{Seed: 7, Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(failAt), Device: 2},
	}}
	if err := exec.SetPlan(plan); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n*** gpu2 scheduled to fail mid-training ***\n\n")
	degraded, err := s.Run(10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "degraded   : %d survivor(s) at %v/iter after %d device loss(es)\n",
		s.Cluster().NumDevices(), degraded.AvgIter.Round(time.Microsecond), degraded.DeviceLosses)

	// A replacement joins — an NVLink-attached A100 this time. Grow restores
	// the checkpoint, recomputes on the restored 4-device (now mixed-class)
	// cluster, and activates the recomputed strategy when it profiles faster
	// than the degraded one.
	fmt.Fprintf(w, "\n*** a replacement A100 joins the server ***\n\n")
	rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
	if err != nil {
		return err
	}
	joined := s.Cluster().Device(rep.Device)
	fmt.Fprintf(w, "joined     : %s (%s) as device %d of %d\n",
		joined.Name, rep.Class, rep.Device, rep.Devices)
	fmt.Fprintf(w, "checkpoint : restored, %d iteration(s) of progress lost\n", rep.LostIterations)
	fmt.Fprintf(w, "recomputed : %v on %d GPUs (OS-DPOS, %v wall)\n",
		rep.Recomputed, rep.Devices, rep.RecomputeWall.Round(time.Millisecond))
	fmt.Fprintf(w, "charge     : %v simulated (restart + profiling)\n",
		rep.RecoveryTime.Round(time.Millisecond))

	stats, err := s.Run(10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resumed    : %d iterations at %v/iter on the restored cluster\n",
		stats.Iterations, stats.AvgIter.Round(time.Microsecond))

	// The recomputed strategy is a first-class artifact: it validates against
	// the grown cluster and records the mixed-class shape in provenance.
	art := s.ActiveArtifact()
	if err := art.Validate(train, s.Cluster()); err != nil {
		return fmt.Errorf("recomputed artifact does not validate: %w", err)
	}
	fmt.Fprintf(w, "artifact   : validates against the grown cluster (classes %q)\n",
		art.Provenance.Cluster.Classes)
	return nil
}
