package core

import (
	"sync"
	"sync/atomic"
)

// fanOut is the fan-out engine of both candidate searches (OS-DPOS rounds
// and ColocateSync probes): it calls fn(0..n-1) on up to `workers`
// goroutines — the caller is one of them — and returns only after every
// call has finished, so no goroutine outlives the round. Goroutines pull
// indices from a shared atomic counter, so indices start in ascending
// order; completion order is unspecified, so callers write into an
// index-addressed slice and reduce in order afterwards. With workers <= 1
// (or n <= 1) fn runs on the caller in index order — the Workers <= 1
// sequential reference semantics.
func fanOut(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
