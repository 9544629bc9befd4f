package cost

import (
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// FillExecRow resolves op's execution time on every device into dst, which
// must have len(devs) entries: dst[d] = est.Exec(op, devs[d]). This is the
// dense-table export used by the schedulers' cost lattice, so the estimator
// interface is crossed once per (op, device) per lattice build instead of
// once per inner-loop probe.
func FillExecRow(dst []time.Duration, est Estimator, op *graph.Op, devs []*device.Device) {
	for d, dev := range devs {
		dst[d] = est.Exec(op, dev)
	}
}

// FillCommGrid resolves the transfer time of a tensor of the given size
// over every ordered device pair into dst, which must have len(devs)^2
// entries laid out row-major: dst[from*len(devs)+to] = est.Comm(bytes,
// devs[from], devs[to]). Same-device entries are written as zero without
// consulting the estimator, matching the Estimator contract.
func FillCommGrid(dst []time.Duration, est Estimator, bytes int64, devs []*device.Device) {
	n := len(devs)
	for f, from := range devs {
		row := dst[f*n : (f+1)*n]
		for t, to := range devs {
			if f == t {
				row[t] = 0
				continue
			}
			row[t] = est.Comm(bytes, from, to)
		}
	}
}
