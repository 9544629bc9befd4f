// faultrecovery demonstrates graceful degradation under a device failure:
// a Transformer trains on 8 GPUs under a FastT strategy, one GPU dies
// mid-run at a seeded, deterministic time, and the session recovers
// automatically — it restores the latest checkpoint, shrinks the cluster to
// the 7 survivors, remaps the learned cost models, recomputes the strategy
// with OS-DPOS on the degraded topology, and resumes training. The same
// fault-plan seed always reproduces the same failure point and the same
// recovered strategy.
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
	const gpus = 8
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

	// The executor injects faults from a deterministic plan; none is armed
	// yet, so pre-training runs clean.
	exec := sim.DefaultExecutor(cluster)
	s, err := session.New(cluster, exec, train, session.Config{
		Seed:            7,
		CheckpointEvery: 5, // bound the iterations a failure can destroy
	})
	if err != nil {
		return err
	}
	if _, err := s.Bootstrap(); err != nil {
		return err
	}
	iter := s.BootstrapReport().FinalMeasured
	fmt.Fprintf(w, "bootstrapped on %d GPUs: %v/iter\n", gpus, iter.Round(time.Microsecond))

	// Schedule gpu5 to die a few iterations into normal training. Fault
	// times are absolute on the training timeline, so the plan is armed
	// against the post-bootstrap epoch.
	failAt := exec.Epoch() + 7*iter + iter/3
	plan := &sim.FaultPlan{Seed: 7, Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(failAt), Device: 5},
	}}
	if err := exec.SetPlan(plan); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n*** gpu5 scheduled to fail mid-training ***\n\n")

	stats, err := s.Run(20)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "device losses   : %d\n", stats.DeviceLosses)
	fmt.Fprintf(w, "checkpoint      : restored, %d iteration(s) of progress lost\n", stats.LostIterations)
	fmt.Fprintf(w, "recomputed on   : %d GPUs (OS-DPOS, %v wall)\n",
		s.Cluster().NumDevices(), stats.RecomputeWall.Round(time.Millisecond))
	fmt.Fprintf(w, "recovery charge : %v simulated\n", stats.RecoveryTime.Round(time.Millisecond))
	if stats.Degraded != "" {
		fmt.Fprintf(w, "degraded to     : %s\n", stats.Degraded)
	}
	fmt.Fprintf(w, "resumed         : %d iterations at %v/iter on the survivors\n",
		stats.Iterations, stats.AvgIter.Round(time.Microsecond))

	// The recovered strategy is a first-class artifact: it validates against
	// the degraded cluster and records the irregular shape in provenance.
	art := s.ActiveArtifact()
	if err := art.Validate(train, s.Cluster()); err != nil {
		return fmt.Errorf("recovered artifact does not validate: %w", err)
	}
	fmt.Fprintf(w, "artifact        : validates against the degraded cluster (origin %q)\n",
		art.Provenance.Origin)
	return nil
}
