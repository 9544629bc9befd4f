package cost

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"fastt/internal/jsonread"
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
// provenance.
func (m *Model) WriteJSON(w io.Writer) error {
	doc := jsonModel{}

	m.Comp.mu.RLock()
	for k, s := range m.Comp.stats {
		doc.Comp = append(doc.Comp, jsonCompEntry{
			Name: k.name, Dev: k.dev, N: s.n, Mean: s.mean, M2: s.m2,
		})
	}
	m.Comp.mu.RUnlock()
	sort.Slice(doc.Comp, func(i, j int) bool {
		if doc.Comp[i].Name != doc.Comp[j].Name {
			return doc.Comp[i].Name < doc.Comp[j].Name
		}
		return doc.Comp[i].Dev < doc.Comp[j].Dev
	})

	m.Link.mu.RLock()
	for k, acc := range m.Link.pairs {
		doc.Comm = append(doc.Comm, jsonCommEntry{
			From: k.from, To: k.to, N: acc.n,
			SumX: acc.sumX, SumY: acc.sumY,
			SumXX: acc.sumXX, SumXY: acc.sumXY,
			MinX: acc.minX, MaxX: acc.maxX,
		})
	}
	m.Link.mu.RUnlock()
	sort.Slice(doc.Comm, func(i, j int) bool {
		if doc.Comm[i].From != doc.Comm[j].From {
			return doc.Comm[i].From < doc.Comm[j].From
		}
		return doc.Comm[i].To < doc.Comm[j].To
	})

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
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

	m.Comp.mu.Lock()
	for _, e := range doc.Comp {
		k := compKey{name: e.Name, dev: e.Dev}
		cur, ok := m.Comp.stats[k]
		if !ok {
			cur = &runningStat{}
			m.Comp.stats[k] = cur
		}
		mergeStat(cur, e.N, e.Mean, e.M2)
		if class := m.Comp.classOf(e.Dev); class != "" {
			ck := classKey{name: e.Name, class: class}
			cs, ok := m.Comp.byClass[ck]
			if !ok {
				cs = &runningStat{}
				m.Comp.byClass[ck] = cs
			}
			mergeStat(cs, e.N, e.Mean, e.M2)
		}
		agg, ok := m.Comp.byName[e.Name]
		if !ok {
			agg = &runningStat{}
			m.Comp.byName[e.Name] = agg
		}
		mergeStat(agg, e.N, e.Mean, e.M2)
	}
	m.Comp.mu.Unlock()

	m.Link.mu.Lock()
	for _, e := range doc.Comm {
		k := pairKey{from: e.From, to: e.To}
		acc, ok := m.Link.pairs[k]
		if !ok {
			acc = &olsAccumulator{}
			m.Link.pairs[k] = acc
		}
		mergeOLS(acc, e)
		mergeOLS(m.Link.classes[m.Link.classOf(e.From, e.To)], e)
	}
	m.Link.mu.Unlock()
	return nil
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

// mergeOLS combines a serialized accumulator into acc.
func mergeOLS(acc *olsAccumulator, e jsonCommEntry) {
	if e.N == 0 {
		return
	}
	if acc.n == 0 {
		acc.minX, acc.maxX = e.MinX, e.MaxX
	} else {
		if e.MinX < acc.minX {
			acc.minX = e.MinX
		}
		if e.MaxX > acc.maxX {
			acc.maxX = e.MaxX
		}
	}
	acc.n += e.N
	acc.sumX += e.SumX
	acc.sumY += e.SumY
	acc.sumXX += e.SumXX
	acc.sumXY += e.SumXY
}
