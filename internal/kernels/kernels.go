// Package kernels provides the analytic ground-truth latency model that
// stands in for real GPU hardware in this reproduction. The paper measures
// operation execution times on V100 GPUs through the TensorFlow profiler;
// here, the discrete-event simulator (internal/sim) "executes" operations
// with the latencies this package computes, and FastT's cost models learn
// them through profiling exactly as they would learn real hardware.
//
// The model captures the three effects the paper's results hinge on:
//
//  1. Roofline behaviour: an op is either compute-bound (FLOPs over an
//     efficiency-scaled peak) or bandwidth-bound (bytes moved over memory
//     bandwidth).
//  2. Utilization collapse at small sizes: efficiency follows a saturating
//     curve in the op's FLOPs, so halving the per-GPU batch less than
//     halves the run time. This is what degrades strong scaling in
//     Tables 1/3 and what makes splitting tiny operations (LeNet, AlexNet)
//     useless in Table 6.
//  3. Fixed launch overhead per kernel, which penalizes over-splitting.
package kernels

import (
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// Config tunes the analytic model. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// LaunchOverhead is the fixed per-kernel cost (driver + scheduling).
	LaunchOverhead time.Duration
	// SaturationFLOPs is the knee of the utilization curve: an op with this
	// many FLOPs reaches half of its kind's peak efficiency. It is the
	// fallback for devices that do not carry a per-class knee of their own
	// (Device.SaturationFLOPs).
	SaturationFLOPs float64
}

// DefaultConfig returns V100-calibrated constants.
func DefaultConfig() Config {
	return Config{
		LaunchOverhead:  8 * time.Microsecond,
		SaturationFLOPs: 4e9,
	}
}

// Oracle computes ground-truth execution and transfer times against a
// specific cluster's link table. It implements the same estimator shape as
// the learned cost models so that tests can run the scheduling algorithms
// against perfect information.
type Oracle struct {
	cfg     Config
	cluster *device.Cluster
}

// NewOracle returns an oracle for the given cluster.
func NewOracle(cfg Config, cluster *device.Cluster) *Oracle {
	return &Oracle{cfg: cfg, cluster: cluster}
}

// NewDefaultOracle returns an oracle with DefaultConfig.
func NewDefaultOracle(cluster *device.Cluster) *Oracle {
	return NewOracle(DefaultConfig(), cluster)
}

// WithCluster returns an oracle with the same kernel configuration rebound
// to a different cluster — the degraded-cluster path after a device loss,
// where survivor timings must stay identical to their pre-failure values.
func (o *Oracle) WithCluster(cluster *device.Cluster) *Oracle {
	return NewOracle(o.cfg, cluster)
}

// peakEfficiency is the fraction of device peak FLOPS an operation kind can
// reach at large sizes. Dense GEMMs run near peak; convolutions slightly
// lower; recurrent cells lower still (many small fused GEMMs); elementwise
// and data-movement ops are bandwidth-bound and effectively never
// compute-bound.
func peakEfficiency(k graph.OpKind) float64 {
	switch k {
	case graph.KindMatMul:
		return 0.72
	case graph.KindMatMulBackprop:
		return 0.66
	case graph.KindConv2D:
		return 0.60
	case graph.KindConv2DBackprop:
		return 0.54
	case graph.KindLSTMCell, graph.KindLSTMCellGrad:
		return 0.42
	case graph.KindEmbedding, graph.KindEmbeddingGrad:
		return 0.20
	case graph.KindBatchNorm, graph.KindBatchNormGrad,
		graph.KindLayerNorm, graph.KindLayerNormGrad,
		graph.KindSoftmax, graph.KindSoftmaxGrad:
		return 0.15
	default:
		return 0.10
	}
}

// saturationFLOPs is the utilization knee for one device: the device class's
// own constant when it carries one, the configured default otherwise. The
// homogeneous constructors leave the per-device value zero, so a custom
// Config keeps its pre-class meaning on uniform clusters; heterogeneous
// clusters materialize a knee per class (a T4 saturates on far smaller
// kernels than an A100).
func (o *Oracle) saturationFLOPs(dev *device.Device) float64 {
	if dev.SaturationFLOPs > 0 {
		return dev.SaturationFLOPs
	}
	return o.cfg.SaturationFLOPs
}

// Exec returns the ground-truth run time of op on dev.
func (o *Oracle) Exec(op *graph.Op, dev *device.Device) time.Duration {
	if op.FLOPs == 0 && op.OutputBytes == 0 {
		return o.cfg.LaunchOverhead
	}
	f := float64(op.FLOPs)
	// The saturation knee scales with the kind's peak efficiency so that
	// inherently bandwidth-bound kinds (tiny peak efficiency) are not
	// charged pathological compute time at small sizes; their cost comes
	// from the memory term below.
	knee := o.saturationFLOPs(dev) * peakEfficiency(op.Kind)
	eff := peakEfficiency(op.Kind) * f / (f + knee)
	var computeSec float64
	if eff > 0 && f > 0 {
		computeSec = f / (eff * dev.PeakFLOPS)
	}
	// Bytes moved through device memory: read inputs (approximated by the
	// output size, as most ops are shape-preserving within 2x), read
	// parameters, write the output.
	moved := float64(3*op.OutputBytes + op.ParamBytes)
	memSec := moved / dev.MemBandwidth
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	return o.cfg.LaunchOverhead + time.Duration(sec*float64(time.Second))
}

// Comm returns the ground-truth transfer time of a tensor between two
// devices. Same-device transfers are free.
func (o *Oracle) Comm(bytes int64, from, to *device.Device) time.Duration {
	if from.ID == to.ID {
		return 0
	}
	return TransferTime(bytes, o.cluster.Link(from.ID, to.ID))
}

// TransferTime returns the time to move a tensor over a link: the link
// latency plus bytes over bandwidth. A zero link (no interconnect) costs
// nothing, matching same-device transfers.
func TransferTime(bytes int64, l device.Link) time.Duration {
	if l.Bandwidth == 0 {
		return 0
	}
	sec := l.Latency + float64(bytes)/l.Bandwidth
	return time.Duration(sec * float64(time.Second))
}
