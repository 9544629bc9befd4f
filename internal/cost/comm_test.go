package cost

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fastt/internal/device"
)

func twoServerCluster(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// observeLine feeds the model synthetic transfers following
// time = latency + bytes/bandwidth.
func observeLine(m *CommModel, from, to int, latency time.Duration, bandwidth float64, sizes []int64) {
	for _, s := range sizes {
		d := latency + time.Duration(float64(s)/bandwidth*float64(time.Second))
		m.Observe(from, to, s, d)
	}
}

func TestCommModelRecoversLinearLaw(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	observeLine(m.Link, 0, 1, 10*time.Microsecond, 20e9,
		[]int64{1 << 10, 1 << 16, 1 << 20, 1 << 24})

	lm, ok := m.Link.Pair(0, 1)
	if !ok {
		t.Fatal("Pair fit missing")
	}
	// Slope should approximate 1/20e9 s/B.
	wantSlope := 1.0 / 20e9
	if lm.Slope < wantSlope*0.95 || lm.Slope > wantSlope*1.05 {
		t.Errorf("fitted slope = %g, want ~%g", lm.Slope, wantSlope)
	}
	// Prediction at a new size should be close to the true law.
	got := m.Comm(8<<20, c.Device(0), c.Device(1))
	bytes := float64(int64(8 << 20))
	want := 10*time.Microsecond + time.Duration(bytes/20e9*float64(time.Second))
	if got < want*95/100 || got > want*105/100 {
		t.Errorf("Comm(8MiB) = %v, want ~%v", got, want)
	}
}

func TestCommModelSameDeviceZero(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	if got := m.Comm(1<<20, c.Device(0), c.Device(0)); got != 0 {
		t.Errorf("same-device Comm = %v, want 0", got)
	}
}

func TestCommModelUnknownPairExploresAsZero(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	if got := m.Comm(1<<20, c.Device(0), c.Device(1)); got != 0 {
		t.Errorf("unprofiled Comm = %v, want 0 (explore)", got)
	}
}

func TestCommModelClassFallback(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	// Train the intra-server class on pair (0,1) only.
	observeLine(m.Link, 0, 1, 10*time.Microsecond, 20e9, []int64{1 << 16, 1 << 20})
	// Pair (1,0) is unobserved but same class; should borrow the fit.
	got := m.Comm(1<<20, c.Device(1), c.Device(0))
	if got == 0 {
		t.Error("class fallback did not apply")
	}
	// Cross-server pair (0,2) is a different class with no data: zero.
	if got := m.Comm(1<<20, c.Device(0), c.Device(2)); got != 0 {
		t.Errorf("cross-class Comm = %v, want 0", got)
	}
}

func TestCommModelSingleSizeProportional(t *testing.T) {
	c := twoServerCluster(t)
	m := NewModel(c)
	m.Link.Observe(0, 1, 1<<20, 1*time.Millisecond)
	// With one distinct size the model scales proportionally through zero.
	got := m.Comm(2<<20, c.Device(0), c.Device(1))
	if got < 1900*time.Microsecond || got > 2100*time.Microsecond {
		t.Errorf("proportional Comm = %v, want ~2ms", got)
	}
}

func TestLinearModelPredictClampsNegative(t *testing.T) {
	lm := LinearModel{Intercept: -1, Slope: 0}
	if got := lm.Predict(100); got != 0 {
		t.Errorf("Predict = %v, want 0", got)
	}
}

// TestOLSPropertyRecoversRandomLines fits random positive lines with exact
// observations and checks recovery of both parameters.
func TestOLSPropertyRecoversRandomLines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		intercept := rng.Float64() * 1e-3      // up to 1ms latency
		slope := (rng.Float64() + 0.01) * 1e-9 // ~1 GB/s to 100 GB/s
		var acc olsAccumulator
		for i := 0; i < 10; i++ {
			x := float64(rng.Int63n(1 << 24))
			one := sample(x, intercept+slope*x)
			acc.merge(&one)
		}
		lm := acc.fit()
		okSlope := lm.Slope > slope*0.99 && lm.Slope < slope*1.01
		okIcept := lm.Intercept > intercept-1e-6 && lm.Intercept < intercept+1e-6
		return okSlope && okIcept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCommModelIgnoresSameDeviceObservations(t *testing.T) {
	c := twoServerCluster(t)
	m := NewCommModel(c)
	m.Observe(0, 0, 1<<20, time.Second)
	if m.NumPairs() != 0 {
		t.Error("same-device observation was recorded")
	}
}
