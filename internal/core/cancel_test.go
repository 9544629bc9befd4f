package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// cancellingEst wraps an estimator and fires cancel after n Exec calls,
// modelling a caller abandoning a search mid-flight (a serve request
// timeout, a Ctrl-C). Exec keeps answering after the trigger: cancellation
// must come from the search's own ctx checks, not from the estimator
// failing.
type cancellingEst struct {
	inner  cost.Estimator
	calls  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *cancellingEst) Exec(op *graph.Op, d *device.Device) time.Duration {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Exec(op, d)
}

func (c *cancellingEst) Comm(bytes int64, from, to *device.Device) time.Duration {
	return c.inner.Comm(bytes, from, to)
}

func TestComputeStrategyCtxPreCancelled(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ComputeStrategyCtx(ctx, g, c, est, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ComputeStrategyCtx: err = %v, want context.Canceled", err)
	}
	if _, err := ComputePlacementOnlyCtx(ctx, g, c, est, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ComputePlacementOnlyCtx: err = %v, want context.Canceled", err)
	}
	if _, err := OSDPOSCtx(ctx, g, c, est, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("OSDPOSCtx: err = %v, want context.Canceled", err)
	}
	if _, _, err := ColocateSyncCtx(ctx, g, c, est, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ColocateSyncCtx: err = %v, want context.Canceled", err)
	}
}

func TestComputeStrategyCtxNilContext(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	//lint:ignore SA1012 nil ctx is part of the documented contract
	st, err := ComputeStrategyCtx(nil, g, c, est, Options{})
	if err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if len(st.Splits) == 0 {
		t.Error("nil-ctx search found no splits")
	}
}

// TestComputeStrategyCtxMidSearchCancel counts the estimator calls of a full
// search, then reruns it with the context cancelled halfway through that
// count, at every worker configuration. The search must surface
// context.Canceled, and a fresh search afterwards must still succeed — a
// cancelled run may not corrupt the shared pools or caches.
func TestComputeStrategyCtxMidSearchCancel(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)

	probe := &cancellingEst{inner: &fakeEst{commPerByte: time.Nanosecond}, after: -1, cancel: func() {}}
	if _, err := ComputeStrategy(g, c, probe, Options{}); err != nil {
		t.Fatalf("baseline search: %v", err)
	}
	total := probe.calls.Load()
	if total < 4 {
		t.Fatalf("fixture too small to cancel mid-search: %d estimator calls", total)
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		est := &cancellingEst{
			inner:  &fakeEst{commPerByte: time.Nanosecond},
			after:  total / 2,
			cancel: cancel,
		}
		_, err := ComputeStrategyCtx(ctx, g, c, est, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		cancel()

		st, err := ComputeStrategy(g, c, &fakeEst{commPerByte: time.Nanosecond}, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: search after cancel: %v", workers, err)
		}
		if len(st.Splits) == 0 {
			t.Errorf("workers=%d: search after cancel found no splits", workers)
		}
	}
}

// TestOSDPOSCtxDeadline drives cancellation through a real timer deadline
// rather than a hand-rolled trigger.
func TestOSDPOSCtxDeadline(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := OSDPOSCtx(ctx, g, c, &fakeEst{commPerByte: time.Nanosecond}, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
