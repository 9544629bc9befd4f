package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue: with one connection busy for 20ms per request
// and a request due every 5ms, requests queue in the generator, and that
// wait is part of their latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const work = 20 * time.Millisecond
	l := runOpenLoop(5, 5*time.Millisecond, 1, func(int, int) error {
		time.Sleep(work)
		return nil
	})
	lat, lag := l.latency(), l.lag()
	for i := range lat {
		// Request i cannot finish before (i+1) requests' work is done.
		floor := ms(time.Duration(i+1)*work - l.due(i))
		if lat[i] < floor {
			t.Errorf("request %d: latency %.2fms, want at least %.2fms", i, lat[i], floor)
		}
		if got := ms(l.done[i] - l.due(i)); lat[i] != got {
			t.Errorf("request %d: latency %.2fms, want done-due %.2fms", i, lat[i], got)
		}
	}
	if floor := ms(4*work - l.due(4)); lag[4] < floor {
		t.Errorf("last request sent %.2fms late, want at least %.2fms", lag[4], floor)
	}
}

func TestOpenLoopNeverSendsEarly(t *testing.T) {
	l := runOpenLoop(20, 2*time.Millisecond, 2, func(int, int) error { return nil })
	for i := range l.sent {
		if l.sent[i] < l.due(i) {
			t.Errorf("request %d sent at %v, due at %v", i, l.sent[i], l.due(i))
		}
	}
}

func TestOpenLoopUsesAtMostConns(t *testing.T) {
	var inFlight, peak atomic.Int32
	runOpenLoop(40, 0, 2, func(int, int) error {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight, want at most 2", p)
	}
}
