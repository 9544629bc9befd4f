package cost

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"fastt/internal/jsonread"
	"fastt/internal/jsonwrite"
)

// Persistence: FastT's cost models are expensive to bootstrap (several
// profiled iterations plus strategy restarts), so a production deployment
// saves them once the pre-training stage declares them stable and reloads
// them when the same model trains again — skipping straight to the normal
// training stage. The format captures the sufficient statistics of both
// models, so merged observations continue seamlessly.

// jsonCompEntry is one computation-model key with its running statistics.
type jsonCompEntry struct {
	Name string  `json:"name"`
	Dev  int     `json:"dev"`
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// jsonCommEntry is one communication-model pair with its OLS accumulator.
type jsonCommEntry struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	N     int64   `json:"n"`
	SumX  float64 `json:"sumX"`
	SumY  float64 `json:"sumY"`
	SumXX float64 `json:"sumXX"`
	SumXY float64 `json:"sumXY"`
	MinX  float64 `json:"minX"`
	MaxX  float64 `json:"maxX"`
}

type jsonModel struct {
	Comp []jsonCompEntry `json:"comp"`
	Comm []jsonCommEntry `json:"comm"`
}

// WriteJSON serializes both cost models. The output is deterministic
// (entries sorted by key), so the same learned state always produces the
// same bytes — strategy artifacts hash this output as their cost-model
// provenance. The bytes are exactly what encoding/json's Encoder writes for
// jsonModel (null for an absent entry list, encoding/json's float notation
// and string escaping, a trailing newline), appended into one small buffer
// that is flushed as it fills. A non-finite statistic, which encoding/json
// refuses, fails the write before any byte reaches w.
func (m *Model) WriteJSON(w io.Writer) error {
	comp := m.Comp.sortedEntries()
	comm := m.Link.sortedPairs()
	for _, c := range comp {
		if err := jsonwrite.Finite(c.mean, c.m2); err != nil {
			return fmt.Errorf("cost entry %q on device %d: %w", c.name, c.dev, err)
		}
	}
	for _, p := range comm {
		if err := jsonwrite.Finite(p.sumX, p.sumY, p.sumXX, p.sumXY, p.minX, p.maxX); err != nil {
			return fmt.Errorf("comm entry %d->%d: %w", p.from, p.to, err)
		}
	}

	e := jsonwrite.New(w)
	e.Raw(`{"comp":`)
	if len(comp) == 0 {
		e.Raw("null")
	}
	for i, c := range comp {
		if i == 0 {
			e.Raw(`[{"name":`)
		} else {
			e.Raw(`},{"name":`)
		}
		e.String(c.name)
		e.Raw(`,"dev":`)
		e.Int(int64(c.dev))
		e.Raw(`,"n":`)
		e.Int(c.n)
		e.Raw(`,"mean":`)
		e.Float(c.mean)
		e.Raw(`,"m2":`)
		e.Float(c.m2)
	}
	if len(comp) > 0 {
		e.Raw("}]")
	}
	e.Raw(`,"comm":`)
	if len(comm) == 0 {
		e.Raw("null")
	}
	for i, p := range comm {
		if i == 0 {
			e.Raw(`[{"from":`)
		} else {
			e.Raw(`},{"from":`)
		}
		e.Int(int64(p.from))
		e.Raw(`,"to":`)
		e.Int(int64(p.to))
		e.Raw(`,"n":`)
		e.Int(p.n)
		e.Raw(`,"sumX":`)
		e.Float(p.sumX)
		e.Raw(`,"sumY":`)
		e.Float(p.sumY)
		e.Raw(`,"sumXX":`)
		e.Float(p.sumXX)
		e.Raw(`,"sumXY":`)
		e.Float(p.sumXY)
		e.Raw(`,"minX":`)
		e.Float(p.minX)
		e.Raw(`,"maxX":`)
		e.Float(p.maxX)
	}
	if len(comm) > 0 {
		e.Raw("}]")
	}
	e.Raw("}\n")
	return e.Flush()
}

// compEntry is one computation-model key with a copy of its statistics.
type compEntry struct {
	compKey
	runningStat
}

// sortedEntries copies the per-(name, device) statistics out under the read
// lock, sorted by name, then device.
func (m *CompModel) sortedEntries() []compEntry {
	m.mu.RLock()
	entries := make([]compEntry, 0, len(m.stats))
	for k, st := range m.stats {
		entries = append(entries, compEntry{k, *st})
	}
	m.mu.RUnlock()
	slices.SortFunc(entries, func(a, b compEntry) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return cmp.Compare(a.dev, b.dev)
	})
	return entries
}

// pairEntry is one communication-model pair with a copy of its accumulator.
type pairEntry struct {
	pairKey
	olsAccumulator
}

// sortedPairs copies the per-pair accumulators out under the read lock,
// sorted by source, then destination.
func (m *CommModel) sortedPairs() []pairEntry {
	m.mu.RLock()
	pairs := make([]pairEntry, 0, len(m.pairs))
	for k, acc := range m.pairs {
		pairs = append(pairs, pairEntry{k, *acc})
	}
	m.mu.RUnlock()
	slices.SortFunc(pairs, func(a, b pairEntry) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	return pairs
}

var (
	modelFields = []string{"comp", "comm"}
	compFields  = []string{"name", "dev", "n", "mean", "m2"}
	commFields  = []string{"from", "to", "n", "sumX", "sumY", "sumXX", "sumXY", "minX", "maxX"}
)

// decodeModel reads a jsonModel document from the first JSON value in data,
// accepting and decoding exactly what encoding/json's Decoder does (see
// package jsonread). Unknown fields are skipped.
func decodeModel(data []byte) (jsonModel, error) {
	var doc jsonModel
	r := jsonread.New(data)
	r.Object(func(key []byte) {
		switch jsonread.Field(key, modelFields) {
		case "comp":
			jsonread.Slice(r, &doc.Comp, func(e *jsonCompEntry) {
				r.Object(func(key []byte) {
					switch jsonread.Field(key, compFields) {
					case "name":
						r.String(&e.Name)
					case "dev":
						r.Int(&e.Dev)
					case "n":
						r.Int64(&e.N)
					case "mean":
						r.Float64(&e.Mean)
					case "m2":
						r.Float64(&e.M2)
					default:
						r.Skip()
					}
				})
			})
		case "comm":
			jsonread.Slice(r, &doc.Comm, func(e *jsonCommEntry) {
				r.Object(func(key []byte) {
					switch jsonread.Field(key, commFields) {
					case "from":
						r.Int(&e.From)
					case "to":
						r.Int(&e.To)
					case "n":
						r.Int64(&e.N)
					case "sumX":
						r.Float64(&e.SumX)
					case "sumY":
						r.Float64(&e.SumY)
					case "sumXX":
						r.Float64(&e.SumXX)
					case "sumXY":
						r.Float64(&e.SumXY)
					case "minX":
						r.Float64(&e.MinX)
					case "maxX":
						r.Float64(&e.MaxX)
					default:
						r.Skip()
					}
				})
			})
		default:
			r.Skip()
		}
	})
	return doc, r.Err()
}

// ReadJSON merges previously saved statistics into the model. Existing
// entries are combined with the loaded ones using the parallel-variance
// (Chan et al.) merge, so loading is safe on a non-empty model. The whole
// document is checked before anything merges: a rejected snapshot leaves
// the model as it was. ReadJSON reads r to EOF but decodes only the first
// JSON value, ignoring whatever follows it.
func (m *Model) ReadJSON(r io.Reader) error {
	data, err := jsonread.ReadAll(r)
	if err != nil {
		return fmt.Errorf("read cost models: %w", err)
	}
	doc, err := decodeModel(data)
	if err != nil {
		return fmt.Errorf("decode cost models: %w", err)
	}
	for _, e := range doc.Comp {
		if e.N < 0 {
			return fmt.Errorf("cost entry %q: negative count", e.Name)
		}
	}
	devices := m.Link.cluster.NumDevices()
	for _, e := range doc.Comm {
		if e.N < 0 {
			return fmt.Errorf("comm entry %d->%d: negative count", e.From, e.To)
		}
		if e.From < 0 || e.To < 0 || e.From >= devices || e.To >= devices {
			return fmt.Errorf("comm entry %d->%d: outside cluster", e.From, e.To)
		}
	}

	// Merge in place, logging every statistic the document touches, and
	// undo the merge unless all of them stay finite: finite entries can
	// still sum past the float range, and a non-finite statistic would
	// poison predictions and fail WriteJSON.
	m.Comp.mu.Lock()
	defer m.Comp.mu.Unlock()
	m.Link.mu.Lock()
	defer m.Link.mu.Unlock()
	exact := make(undoLog[compKey, runningStat], 0, len(doc.Comp))
	names := make(undoLog[string, meanStat], 0, len(doc.Comp))
	classes := make(undoLog[classKey, meanStat], 0, len(doc.Comp))
	for _, e := range doc.Comp {
		st := keyStats{
			exact: exact.touch(m.Comp.stats, compKey{name: e.Name, dev: e.Dev}),
			name:  names.touch(m.Comp.byName, e.Name),
		}
		if class := m.Comp.classOf(e.Dev); class != "" {
			st.class = classes.touch(m.Comp.byClass, classKey{name: e.Name, class: class})
		}
		st.merge(e.N, e.Mean, e.M2)
	}
	pairs := make(undoLog[pairKey, olsAccumulator], 0, len(doc.Comm))
	links := m.Link.classes
	for _, e := range doc.Comm {
		acc := olsAccumulator{n: e.N, sumX: e.SumX, sumY: e.SumY, sumXX: e.SumXX, sumXY: e.SumXY, minX: e.MinX, maxX: e.MaxX}
		pairs.touch(m.Link.pairs, pairKey{from: e.From, to: e.To}).merge(&acc)
		m.Link.classes[linkClassOf(m.Link.cluster, e.From, e.To)].merge(&acc)
	}
	if err := mergedFinite(exact, names, classes, pairs, &m.Link.classes); err != nil {
		exact.undo(m.Comp.stats)
		names.undo(m.Comp.byName)
		classes.undo(m.Comp.byClass)
		pairs.undo(m.Link.pairs)
		m.Link.classes = links
		return err
	}
	m.Comp.snap = nil
	m.Link.snap = nil
	return nil
}

// mergedFinite checks every statistic a load wrote through.
func mergedFinite(exact undoLog[compKey, runningStat], names undoLog[string, meanStat],
	classes undoLog[classKey, meanStat], pairs undoLog[pairKey, olsAccumulator],
	links *[numLinkClasses]olsAccumulator) error {
	for _, w := range exact {
		if err := jsonwrite.Finite(w.ptr.mean, w.ptr.m2); err != nil {
			return fmt.Errorf("cost entry %q on device %d: merged statistics overflow: %w", w.key.name, w.key.dev, err)
		}
	}
	for _, w := range names {
		if err := jsonwrite.Finite(w.ptr.mean); err != nil {
			return fmt.Errorf("cost entry %q: merged statistics overflow: %w", w.key, err)
		}
	}
	for _, w := range classes {
		if err := jsonwrite.Finite(w.ptr.mean); err != nil {
			return fmt.Errorf("cost entry %q on class %s: merged statistics overflow: %w", w.key.name, w.key.class, err)
		}
	}
	for _, w := range pairs {
		a := w.ptr
		if err := jsonwrite.Finite(a.sumX, a.sumY, a.sumXX, a.sumXY, a.minX, a.maxX); err != nil {
			return fmt.Errorf("comm entry %d->%d: merged statistics overflow: %w", w.key.from, w.key.to, err)
		}
	}
	for _, a := range links {
		if err := jsonwrite.Finite(a.sumX, a.sumY, a.sumXX, a.sumXY, a.minX, a.maxX); err != nil {
			return fmt.Errorf("comm entries: merged statistics overflow: %w", err)
		}
	}
	return nil
}

// undoLog records each write a load makes through a model map, so a
// rejected load can restore the map exactly.
type undoLog[K comparable, V any] []written[K, V]

// written is one entry a load wrote through, with its value before the
// write; existed is false when the load created it.
type written[K comparable, V any] struct {
	key     K
	ptr     *V
	prev    V
	existed bool
}

// touch returns live[k], creating it on first use, and logs it.
func (u *undoLog[K, V]) touch(live map[K]*V, k K) *V {
	v, ok := live[k]
	if !ok {
		v = new(V)
		live[k] = v
	}
	*u = append(*u, written[K, V]{key: k, ptr: v, prev: *v, existed: ok})
	return v
}

// undo restores live to its state before the logged writes.
func (u undoLog[K, V]) undo(live map[K]*V) {
	for i := len(u) - 1; i >= 0; i-- {
		if w := u[i]; w.existed {
			*w.ptr = w.prev
		} else {
			delete(live, w.key)
		}
	}
}

// mergeStat combines (n, mean, m2) into s (parallel Welford merge).
func mergeStat(s *runningStat, n int64, mean, m2 float64) {
	if n == 0 {
		return
	}
	if s.n == 0 {
		s.n, s.mean, s.m2 = n, mean, m2
		return
	}
	total := s.n + n
	delta := mean - s.mean
	s.m2 += m2 + delta*delta*float64(s.n)*float64(n)/float64(total)
	s.mean += delta * float64(n) / float64(total)
	s.n = total
}
