// driftrecovery demonstrates the adaptive side of FastT's cost models
// (Sec. 4: "the cost models are updated only when the execution times have
// changed significantly based on our periodical profiling"): training runs
// under a FastT strategy, then one GPU loses most of its throughput
// (thermal throttling, a noisy neighbour). The periodic profiler detects
// the drift, refreshes the cost models, recomputes the strategy against the
// now-asymmetric cluster, and activates it — with the usual rollback
// protection. It also shows cost-model persistence: the learned models are
// saved and reloaded into a second session, which skips the exploration.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
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
	cluster, err := device.SingleServer(2)
	if err != nil {
		return err
	}
	model, err := models.InceptionV3(32)
	if err != nil {
		return err
	}
	train, err := graph.BuildDataParallel(model, 2)
	if err != nil {
		return err
	}
	s, err := session.New(cluster, sim.DefaultExecutor(cluster), train, session.Config{
		Seed:           11,
		ReprofileEvery: 4, // the paper's periodic profiling
	})
	if err != nil {
		return err
	}
	if _, err := s.Bootstrap(); err != nil {
		return err
	}
	healthy, err := s.Run(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "healthy cluster : %v/iter (%d reprofiles, %d recomputes)\n",
		healthy.AvgIter.Round(time.Microsecond), healthy.Reprofiles, healthy.Recomputed)

	// GPU 1 degrades to a third of its throughput mid-training.
	cluster.Device(1).PeakFLOPS /= 3
	cluster.Device(1).MemBandwidth /= 3
	fmt.Fprintln(w, "\n*** gpu1 throttles to 1/3 throughput ***")

	degraded, err := s.Run(16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after throttling: %v/iter (%d reprofiles, %d recomputes)\n",
		degraded.AvgIter.Round(time.Microsecond), degraded.Reprofiles, degraded.Recomputed)
	if degraded.Recomputed > 0 {
		fmt.Fprintln(w, "the periodic profiler noticed the drift and recomputed the strategy")
	} else {
		fmt.Fprintln(w, "drift detected but the running strategy remained the best available")
	}

	// Persist the learned cost models for the next training job.
	var blob strings.Builder
	if err := s.SaveCosts(&blob); err != nil {
		return err
	}
	next, err := session.New(cluster, sim.DefaultExecutor(cluster), train, session.Config{Seed: 12})
	if err != nil {
		return err
	}
	if err := next.LoadCosts(strings.NewReader(blob.String())); err != nil {
		return err
	}
	cov := next.Costs().Comp.Coverage(train)
	fmt.Fprintf(w, "\nnew session preloaded %d cost entries (coverage %.0f%%): pre-training exploration skipped\n",
		next.Costs().Comp.NumEntries(), 100*cov)
	return nil
}
