package cost

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// decodeModelOracle is the encoding/json decoder decodeModel replaced, and
// the reference for its accept set and decoded documents.
func decodeModelOracle(data []byte) (jsonModel, error) {
	var doc jsonModel
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc)
	return doc, err
}

// FuzzModelReadJSON asserts the cost-model loader's contract on arbitrary
// bytes: it never panics, it accepts exactly the documents the
// encoding/json oracle accepts and decodes them to the same document, and
// any snapshot it merges serializes canonically — writing, re-reading into a
// fresh model, and writing again produces identical bytes. A model that
// was snapshotted before the load must end up where the fresh one does:
// the same bytes and, for every loaded key, the same predictions, so the
// load dropped the memoised snapshot.
func FuzzModelReadJSON(f *testing.F) {
	f.Add([]byte(`{"comp":[{"name":"conv1","dev":0,"n":3,"mean":1500000,"m2":12.5}],` +
		`"comm":[{"from":0,"to":1,"n":2,"sumX":1024,"sumY":9,"sumXX":524800,` +
		`"sumXY":4608,"minX":256,"maxX":768}]}`))
	f.Add([]byte(`{"comp":[],"comm":[]}`))
	f.Add([]byte(`{"comp":[{"name":"x","dev":0,"n":-1}]}`))
	f.Add([]byte(`{"comm":[{"from":9,"to":0}]}`))
	f.Add([]byte(`{"comm":[{"from":0,"to":1,"n":-5}]}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`{"unknown":[1,{"a":null}],"COMP":[{"Name":"x","N":1,"mean":1e308,"extra":"\ud800"}]} trailing`))
	f.Add([]byte(`{"comp":[{"name":"x","n":1.5}]}`))
	f.Add([]byte(`{"comp":[{"name":"x","n":1,"mean":1e400}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := decodeModel(data)
		want, werr := decodeModelOracle(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeModel error %v, oracle error %v, on %q", err, werr, data)
		}
		if err == nil && !reflect.DeepEqual(doc, want) {
			t.Fatalf("decodeModel and the oracle disagree on %q:\n got %#v\nwant %#v", data, doc, want)
		}
		cluster, err := device.SingleServer(4)
		if err != nil {
			t.Fatalf("SingleServer: %v", err)
		}
		m := NewModel(cluster)
		if err := m.ReadJSON(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := m.WriteJSON(&first); err != nil {
			t.Fatalf("accepted model does not serialize: %v", err)
		}
		memo := NewModel(cluster)
		ReadSnapshot(memo)
		if err := memo.ReadJSON(bytes.NewReader(data)); err != nil {
			t.Fatalf("snapshotted model rejected what a fresh one accepted: %v", err)
		}
		var memoJSON bytes.Buffer
		if err := memo.WriteJSON(&memoJSON); err != nil {
			t.Fatalf("snapshotted model does not serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), memoJSON.Bytes()) {
			t.Fatalf("snapshotted model loaded differently:\n%s\nvs\n%s", memoJSON.Bytes(), first.Bytes())
		}
		for _, e := range doc.Comp {
			op, dev := &graph.Op{Name: e.Name}, &device.Device{ID: e.Dev}
			if got, want := memo.Exec(op, dev), m.Exec(op, dev); got != want {
				t.Fatalf("Exec(%q, dev %d) = %v after a snapshot, %v fresh", e.Name, e.Dev, got, want)
			}
		}
		for _, e := range doc.Comm {
			from, to := cluster.Device(e.From), cluster.Device(e.To)
			for _, b := range []int64{0, 1 << 20} {
				if got, want := memo.Comm(b, from, to), m.Comm(b, from, to); got != want {
					t.Fatalf("Comm(%d, %d->%d) = %v after a snapshot, %v fresh", b, e.From, e.To, got, want)
				}
			}
		}
		fresh := NewModel(cluster)
		if err := fresh.ReadJSON(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := fresh.WriteJSON(&second); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round-trip is not canonical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
