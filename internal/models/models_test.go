package models

import (
	"errors"
	"strings"
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// paramMB returns total raw parameter megabytes of a graph.
func paramMB(g *graph.Graph) float64 {
	return float64(g.ComputeStats().ParamBytes) / float64(device.MiB)
}

func TestCatalogBuildsAndValidates(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(spec.GlobalBatch)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if g.NumOps() < 10 {
				t.Errorf("suspiciously small graph: %d ops", g.NumOps())
			}
			// Every parameterized op must have a gradient producer so the
			// data-parallel builder can wire aggregation.
			grads := make(map[string]bool)
			for _, op := range g.Ops() {
				if op.GradFor != "" {
					grads[op.GradFor] = true
				}
			}
			for _, op := range g.Ops() {
				if op.ParamBytes > 0 && !grads[op.Name] {
					t.Errorf("parameterized op %q has no gradient producer", op.Name)
				}
			}
			// Backward mirrors exist.
			bp := 0
			for _, op := range g.Ops() {
				if strings.HasSuffix(op.Name, "_bp") {
					bp++
				}
			}
			if bp == 0 {
				t.Error("no backward ops in training graph")
			}
		})
	}
}

func TestCatalogDataParallelizable(t *testing.T) {
	// Every model must replicate cleanly (the paper's start strategy).
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(smallBatch(spec))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			dp, err := graph.BuildDataParallel(g, 2)
			if err != nil {
				t.Fatalf("BuildDataParallel: %v", err)
			}
			if err := dp.Validate(); err != nil {
				t.Fatalf("Validate DP graph: %v", err)
			}
		})
	}
}

// smallBatch shrinks batches so the replication test stays fast.
func smallBatch(spec Spec) int {
	if spec.Name == "Transformer" {
		return 512
	}
	if spec.GlobalBatch > 32 {
		return 32
	}
	return spec.GlobalBatch
}

func TestParameterSizesMatchPublishedArchitectures(t *testing.T) {
	tests := []struct {
		name  string
		batch int
		minMB float64
		maxMB float64
	}{
		{"LeNet", 32, 0.1, 2},          // ~61K params = 0.24 MB
		{"AlexNet", 32, 200, 280},      // ~61M params = 233 MB
		{"VGG-19", 32, 500, 600},       // ~143M params = 548 MB
		{"ResNet200", 32, 200, 300},    // ~65M params = 248 MB
		{"Inception_v3", 32, 60, 130},  // ~24-30M params
		{"RNNLM", 32, 230, 330},        // ~66M params = 264 MB
		{"GNMT", 32, 350, 750},         // ~170M params (32K vocab, 4+4 layers)
		{"Transformer", 512, 200, 400}, // ~65M params = 250 MB
		{"Bert-large", 4, 1200, 1600},  // ~340M params = 1.36 GB
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := ByName(tt.name)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}
			g, err := spec.Build(tt.batch)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			mb := paramMB(g)
			if mb < tt.minMB || mb > tt.maxMB {
				t.Errorf("params = %.1f MB, want in [%.0f, %.0f]", mb, tt.minMB, tt.maxMB)
			}
		})
	}
}

func TestVGGFc6DominatesParameters(t *testing.T) {
	g, err := VGG19(32)
	if err != nil {
		t.Fatalf("VGG19: %v", err)
	}
	fc6, ok := g.OpByName("fc6")
	if !ok {
		t.Fatal("fc6 missing")
	}
	// Table 5: fc6 holds 102.76M parameters (~392 MB fp32).
	wantParams := int64(25088*4096+4096) * 4
	if fc6.ParamBytes != wantParams {
		t.Errorf("fc6 ParamBytes = %d, want %d", fc6.ParamBytes, wantParams)
	}
	stats := g.ComputeStats()
	if fc6.ParamBytes*2 < stats.ParamBytes {
		t.Errorf("fc6 (%d) should hold most parameters of %d", fc6.ParamBytes, stats.ParamBytes)
	}
}

func TestStrongScalingDividesWork(t *testing.T) {
	// Building at half the batch should roughly halve conv FLOPs.
	full, err := VGG19(64)
	if err != nil {
		t.Fatalf("VGG19(64): %v", err)
	}
	half, err := VGG19(32)
	if err != nil {
		t.Fatalf("VGG19(32): %v", err)
	}
	f := full.ComputeStats().TotalFLOPs
	h := half.ComputeStats().TotalFLOPs
	if h*2 != f {
		t.Errorf("FLOPs not linear in batch: full=%d half=%d", f, h)
	}
}

func TestConvOpsSplittable(t *testing.T) {
	g, err := VGG19(64)
	if err != nil {
		t.Fatalf("VGG19: %v", err)
	}
	conv, ok := g.OpByName("conv1_2")
	if !ok {
		t.Fatal("conv1_2 missing")
	}
	dims := conv.SplittableDims()
	if len(dims) != 2 {
		t.Errorf("conv1_2 splittable dims = %v, want batch+channel", dims)
	}
	bp, ok := g.OpByName("conv1_2_bp")
	if !ok {
		t.Fatal("conv1_2_bp missing")
	}
	if len(bp.SplittableDims()) == 0 {
		t.Error("conv backward not splittable")
	}
}

func TestBertLargeMemoryFootprint(t *testing.T) {
	g, err := BertLarge(16)
	if err != nil {
		t.Fatalf("BertLarge: %v", err)
	}
	var static, act int64
	for _, op := range g.Ops() {
		static += graph.ParamStateFactor * op.ParamBytes
		// Forward activations are all live when backprop begins (each is
		// retained for its _bp consumer); backward outputs are transient.
		if !strings.HasSuffix(op.Name, "_bp") {
			act += op.OutputBytes
		}
	}
	// Static (params+grad+Adam) must exceed 5 GB; total footprint at batch
	// 16 must be below 16 GB (Table 3: batch 16 trains on one V100).
	if static < 5*device.GiB {
		t.Errorf("static footprint = %.1f GiB, want > 5", float64(static)/float64(device.GiB))
	}
	if static+act > 16*device.GiB {
		t.Errorf("batch-16 footprint = %.1f GiB, must fit 16 GiB",
			float64(static+act)/float64(device.GiB))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v, want ErrUnknownModel", err)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("Names() = %d entries, want 9", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Error("Names() not sorted")
		}
	}
}

func TestGNMTHasAttentionAndDeepUnrolledStructure(t *testing.T) {
	g, err := GNMT(32)
	if err != nil {
		t.Fatalf("GNMT: %v", err)
	}
	if _, ok := g.OpByName("attention_t0"); !ok {
		t.Error("attention op missing")
	}
	if _, ok := g.OpByName("enc_l3_t31"); !ok {
		t.Error("deep unrolled encoder cell missing")
	}
	kinds := g.OpsByKind()
	if kinds[graph.KindLSTMCell] != 2*4*32 {
		t.Errorf("LSTM cells = %d, want 256", kinds[graph.KindLSTMCell])
	}
}

func TestBuildRejectsBadBatch(t *testing.T) {
	for _, spec := range Catalog() {
		if spec.Name == "Transformer" {
			continue // token batches round up to one sentence
		}
		if _, err := spec.Build(0); err == nil {
			t.Errorf("%s accepted batch 0", spec.Name)
		}
	}
}

// TestForwardGFLOPsMatchPublishedArchitectures pins each model's forward
// FLOPs per sample to the published ballpark, guarding the kernel-model
// calibration against accidental builder changes.
func TestForwardGFLOPsMatchPublishedArchitectures(t *testing.T) {
	tests := []struct {
		name     string
		batch    int
		min, max float64 // forward GFLOPs per sample
	}{
		{"LeNet", 64, 0.0001, 0.01},
		{"AlexNet", 64, 0.5, 3},
		{"VGG-19", 64, 15, 45},      // published ~19.6 fwd multiply-adds x2
		{"ResNet200", 32, 10, 40},   // ~15 GFLOPs fwd
		{"Inception_v3", 32, 3, 15}, // ~5.7 GFLOPs fwd
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := ByName(tt.name)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}
			g, err := spec.Build(tt.batch)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			var fwd int64
			for _, op := range g.Ops() {
				if !graph.IsBackwardKind(op.Kind) {
					fwd += op.FLOPs
				}
			}
			perSample := float64(fwd) / float64(tt.batch) / 1e9
			if perSample < tt.min || perSample > tt.max {
				t.Errorf("forward GFLOPs/sample = %.2f, want in [%.2f, %.2f]",
					perSample, tt.min, tt.max)
			}
		})
	}
}

// TestBackwardRoughlyTwiceForward checks the training-graph convention that
// backward work is about twice the forward work.
func TestBackwardRoughlyTwiceForward(t *testing.T) {
	g, err := VGG19(32)
	if err != nil {
		t.Fatalf("VGG19: %v", err)
	}
	var fwd, bwd int64
	for _, op := range g.Ops() {
		if graph.IsBackwardKind(op.Kind) {
			bwd += op.FLOPs
		} else {
			fwd += op.FLOPs
		}
	}
	ratio := float64(bwd) / float64(fwd)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("backward/forward FLOPs ratio = %.2f, want ~2", ratio)
	}
}

func TestExtrasBuildAndSize(t *testing.T) {
	for _, spec := range Extras() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(8)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if _, err := graph.BuildDataParallel(g, 2); err != nil {
				t.Fatalf("BuildDataParallel: %v", err)
			}
		})
	}
	// Published parameter counts: ResNet-50 ~25.6M (98 MB), GPT-2 small
	// ~124M (473 MB).
	r50, err := ResNet50(8)
	if err != nil {
		t.Fatalf("ResNet50: %v", err)
	}
	if mb := paramMB(r50); mb < 80 || mb > 130 {
		t.Errorf("ResNet50 params = %.1f MB, want ~98", mb)
	}
	gpt, err := GPT2Small(8)
	if err != nil {
		t.Fatalf("GPT2Small: %v", err)
	}
	// ~124M published with tied embeddings; our builder keeps the input
	// embedding and output projection separate (~155M untied).
	if mb := paramMB(gpt); mb < 380 || mb > 680 {
		t.Errorf("GPT2-small params = %.1f MB, want ~470-620", mb)
	}
}

// TestCatalogModelsJSONRoundTrip exercises the graph interchange format at
// full model scale: every catalog model must survive WriteJSON/ReadJSON
// with identical structure.
func TestCatalogModelsJSONRoundTrip(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(smallBatch(spec))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			var sb strings.Builder
			if err := g.WriteJSON(&sb); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			back, err := graph.ReadJSON(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("ReadJSON: %v", err)
			}
			if back.NumOps() != g.NumOps() || back.NumEdges() != g.NumEdges() {
				t.Errorf("shape changed: %d/%d -> %d/%d",
					g.NumOps(), g.NumEdges(), back.NumOps(), back.NumEdges())
			}
			if back.ComputeStats() != g.ComputeStats() {
				t.Errorf("stats changed: %+v -> %+v", g.ComputeStats(), back.ComputeStats())
			}
		})
	}
}
