// Package strategy defines the serializable deployment unit FastT's
// calculator produces: the placement, execution order and operation split
// list for one computation graph, plus the provenance needed to validate it
// against a target cluster (Sec. 3-4 of the paper). The artifact is the
// "compute in minutes, then train under it" object — cheap to compute on
// the training node, written to disk once, and activated later via
// checkpoint/restart, possibly by a different process or executor backend.
package strategy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// SchemaVersion is the current artifact schema. ReadJSON rejects artifacts
// written under a different schema instead of guessing at field semantics.
const SchemaVersion = 1

// Errors returned when loading or validating artifacts.
var (
	// ErrSchemaVersion is returned for artifacts written under a different
	// schema version.
	ErrSchemaVersion = errors.New("artifact schema version mismatch")
	// ErrFingerprint is returned when an artifact is applied to a graph
	// other than the one it was computed for.
	ErrFingerprint = errors.New("artifact graph fingerprint mismatch")
	// ErrClusterShape is returned when an artifact is applied to a cluster
	// with a different topology than it was computed for.
	ErrClusterShape = errors.New("artifact cluster shape mismatch")
	// ErrMaterialize is returned when the split list cannot be re-applied
	// to the base graph.
	ErrMaterialize = errors.New("artifact split list does not apply to graph")
)

// ClusterShape records the topology an artifact was computed for. Regular
// clusters (every server hosting the same GPU count) use Servers ×
// GPUsPerServer, the original schema-1 encoding. Irregular clusters — the
// degraded shapes left behind after a device failure, or mixed fleets — set
// Devices to the total device count and leave GPUsPerServer zero, so a
// strategy recomputed on survivors still validates against the cluster it
// was computed for without bumping the schema.
//
// Classes carries the exact per-device "server:class" layout whenever the
// cluster is not a regular all-V100 testbed. It distinguishes shapes the
// count-only encoding conflates: a 2×4 cluster that lost server 0's gpu1
// from one that lost server 1's gpu3 (both {2 servers, 7 devices}), or a
// 4×V100+4×T4 mix from the 8×V100 fleet it would otherwise impersonate.
// Regular all-V100 clusters leave it empty, so their artifacts serialize
// byte-identically to the pre-class schema.
type ClusterShape struct {
	Servers       int `json:"servers"`
	GPUsPerServer int `json:"gpusPerServer"`
	// Devices is the total device count of an irregular cluster; zero for
	// regular Servers × GPUsPerServer shapes.
	Devices int `json:"devices,omitempty"`
	// Classes is the canonical per-device layout, "server:class" in device
	// ID order, comma-separated (e.g. "0:V100,0:V100,1:T4"). Empty for
	// regular all-V100 clusters.
	Classes string `json:"classes,omitempty"`
}

// NumDevices returns the shape's total device count under either encoding.
func (s ClusterShape) NumDevices() int {
	if s.Devices > 0 {
		return s.Devices
	}
	return s.Servers * s.GPUsPerServer
}

// ClusterShapeOf returns the shape of a cluster.
func ClusterShapeOf(c *device.Cluster) ClusterShape {
	perServer := make(map[int]int)
	allV100 := true
	var classes strings.Builder
	for i, d := range c.Devices() {
		perServer[d.Server]++
		if d.ClassName() != device.ClassV100 {
			allV100 = false
		}
		if i > 0 {
			classes.WriteByte(',')
		}
		fmt.Fprintf(&classes, "%d:%s", d.Server, d.ClassName())
	}
	servers := len(perServer)
	regular := true
	var gps int
	for _, n := range perServer {
		if gps == 0 {
			gps = n
		} else if n != gps {
			regular = false
			break
		}
	}
	if regular && allV100 {
		return ClusterShape{Servers: servers, GPUsPerServer: gps}
	}
	if regular {
		return ClusterShape{Servers: servers, GPUsPerServer: gps, Classes: classes.String()}
	}
	return ClusterShape{Servers: servers, Devices: c.NumDevices(), Classes: classes.String()}
}

// Provenance records where an artifact came from, so a deployment can audit
// what it is about to activate.
type Provenance struct {
	// Model is the catalog name of the model, when known ("custom" graphs
	// leave it empty).
	Model string `json:"model,omitempty"`
	// Origin names the strategy source: "data-parallel", "model-parallel"
	// (bootstrap placements) or "fastt" (the calculator).
	Origin string `json:"origin,omitempty"`
	// Cluster is the topology the strategy was computed for.
	Cluster ClusterShape `json:"cluster"`
	// CostHash fingerprints the learned cost-model snapshot the calculator
	// consumed, tying the artifact to the profile that justified it.
	CostHash string `json:"costHash,omitempty"`
}

// Artifact is the canonical, serializable form of a computed strategy. Its
// Placement and Order index into the graph obtained by applying Splits (in
// list order) to the base graph identified by Fingerprint — see Materialize.
type Artifact struct {
	// SchemaVersion is the schema the artifact was written under.
	SchemaVersion int `json:"schemaVersion"`
	// Fingerprint identifies the base computation graph the strategy was
	// computed for (before splits).
	Fingerprint string `json:"graphFingerprint"`
	// Placement maps op ID -> device ID in the materialized graph.
	Placement []int `json:"placement"`
	// Order lists op IDs of the materialized graph in execution order;
	// empty means the default (FIFO) executor order.
	Order []int `json:"order,omitempty"`
	// Splits is the accepted operation split list, in application order.
	Splits []graph.SplitDecision `json:"splits,omitempty"`
	// Predicted is the scheduler's estimated iteration time.
	Predicted time.Duration `json:"predictedNs,omitempty"`
	// Provenance records what produced the artifact.
	Provenance Provenance `json:"provenance"`
}

// New builds an artifact for a strategy on the base graph: the fingerprint
// is computed here so callers cannot mis-pair strategy and graph.
func New(base *graph.Graph, placement, order []int, splits []graph.SplitDecision,
	predicted time.Duration, prov Provenance) *Artifact {
	return &Artifact{
		SchemaVersion: SchemaVersion,
		Fingerprint:   Fingerprint(base),
		Placement:     placement,
		Order:         order,
		Splits:        splits,
		Predicted:     predicted,
		Provenance:    prov,
	}
}

// Fingerprint returns a stable hex digest of the graph's structure: ops
// (with all scheduling-relevant attributes) and edges. Two graphs with the
// same fingerprint are interchangeable as strategy targets. It is the first
// 16 bytes of graph.Digest, which is memoised on the graph, so repeated
// calls on one unchanged graph hash it once.
func Fingerprint(g *graph.Graph) string {
	sum := g.Digest()
	return hex.EncodeToString(sum[:16])
}

// HashJSON digests the output of a serializer — used to fingerprint the
// cost-model snapshot an artifact was computed under.
func HashJSON(write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// PriorityIndex returns the inverse of Order (op ID -> order position), the
// form priority executors consume, or nil when no order is recorded.
func (a *Artifact) PriorityIndex() []int {
	if len(a.Order) == 0 {
		return nil
	}
	pri := make([]int, len(a.Order))
	for i, id := range a.Order {
		if id < 0 || id >= len(pri) {
			return nil // malformed order; Validate reports the details
		}
		pri[id] = i
	}
	return pri
}

// Materialize re-applies the split list to the base graph, reproducing the
// rewritten graph the artifact's Placement and Order index into. With an
// empty split list the base graph itself is returned. SplitOperation is
// deterministic, so materializing is byte-identical to the graph the
// calculator produced.
func (a *Artifact) Materialize(base *graph.Graph) (*graph.Graph, error) {
	g := base
	for _, sp := range a.Splits {
		op, ok := g.OpByName(sp.OpName)
		if !ok {
			return nil, fmt.Errorf("%w: split target %q not found", ErrMaterialize, sp.OpName)
		}
		next, err := graph.SplitOperation(g, op.ID, sp.Dim, sp.N)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrMaterialize, sp, err)
		}
		g = next
	}
	if len(a.Placement) != g.NumOps() {
		return nil, fmt.Errorf("%w: placement has %d entries for %d materialized ops",
			ErrMaterialize, len(a.Placement), g.NumOps())
	}
	return g, nil
}

// Validate checks the artifact against a deployment target: schema version,
// base-graph fingerprint, and cluster shape. Structural soundness of the
// placement and order is checked by validate.ArtifactStrategy, which also
// materializes the graph.
func (a *Artifact) Validate(base *graph.Graph, cluster *device.Cluster) error {
	if a.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: artifact has %d, this build reads %d",
			ErrSchemaVersion, a.SchemaVersion, SchemaVersion)
	}
	if fp := Fingerprint(base); a.Fingerprint != fp {
		return fmt.Errorf("%w: artifact %s, graph %s", ErrFingerprint, a.Fingerprint, fp)
	}
	if shape := ClusterShapeOf(cluster); a.Provenance.Cluster != shape {
		return fmt.Errorf("%w: artifact %+v, cluster %+v",
			ErrClusterShape, a.Provenance.Cluster, shape)
	}
	return nil
}

// WriteJSON serializes the artifact.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadJSON parses an artifact, rejecting unknown fields and foreign schema
// versions.
func ReadJSON(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("decode artifact: %w", err)
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: artifact has %d, this build reads %d",
			ErrSchemaVersion, a.SchemaVersion, SchemaVersion)
	}
	return &a, nil
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
