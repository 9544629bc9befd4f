package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop records one open-loop run. Request i is due i*interval after
// start; sent and done are relative to start too.
type openLoop struct {
	start      time.Time
	interval   time.Duration
	sent, done []time.Duration
	lane       []int
	errs       []error
}

// runOpenLoop sends n requests on a fixed schedule from conns goroutines,
// each standing for one connection. A free goroutine takes the next request
// in schedule order and sleeps until it is due. When every goroutine is
// busy, requests that come due wait in the generator: latency runs from the
// due time, so that wait counts against the system instead of lowering the
// offered load, as it would in a closed loop.
func runOpenLoop(n int, interval time.Duration, conns int, send func(i, lane int) error) *openLoop {
	l := &openLoop{
		interval: interval,
		sent:     make([]time.Duration, n),
		done:     make([]time.Duration, n),
		lane:     make([]int, n),
		errs:     make([]error, n),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	l.start = time.Now()
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if wait := l.due(i) - time.Since(l.start); wait > 0 {
					time.Sleep(wait)
				}
				l.sent[i], l.lane[i] = time.Since(l.start), lane
				l.errs[i] = send(i, lane)
				l.done[i] = time.Since(l.start)
			}
		}()
	}
	wg.Wait()
	return l
}

// due is when request i was due, relative to the start.
func (l *openLoop) due(i int) time.Duration { return time.Duration(i) * l.interval }

// latency is each request's time from due to completion, in ms.
func (l *openLoop) latency() sample {
	s := make(sample, len(l.done))
	for i, d := range l.done {
		s[i] = ms(d - l.due(i))
	}
	return s
}

// lag is how late the generator sent each request, in ms.
func (l *openLoop) lag() sample {
	s := make(sample, len(l.sent))
	for i, d := range l.sent {
		s[i] = ms(d - l.due(i))
	}
	return s
}

// elapsed is the time from the start to the last completion.
func (l *openLoop) elapsed() time.Duration {
	var last time.Duration
	for _, d := range l.done {
		last = max(last, d)
	}
	return last
}
