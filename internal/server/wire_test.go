package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/store"
)

// hostile holds every byte class encoding/json treats specially: quotes and
// backslashes, the HTML characters, named and numeric control escapes, DEL,
// U+2028/U+2029, a valid multi-byte rune, and invalid UTF-8 (a lone
// continuation byte and a truncated two-byte sequence).
var hostile = `<a href="x">&amp;</a> \ ` + string(rune(0x2028)) + string(rune(0x2029)) + "é" +
	string([]byte{0x00, 0x01, '\b', '\f', '\n', '\r', '\t', 0x1f, 0x7f, 0xff, 0xc3})

// encodeJSON is the reference: what encoding/json writes for v, or its error.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// checkWire fails unless appendResult and appendBatchLine write exactly
// encoding/json's bytes for r (and for a batch line carrying r), or both
// refuse it.
func checkWire(t *testing.T, r *Result) {
	t.Helper()
	check := func(what string, want []byte, wantErr error, got []byte, err error) {
		t.Helper()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: appender error %v, encoding/json error %v", what, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s differs from encoding/json:\n got: %q\nwant: %q", what, got, want)
		}
	}
	want, wantErr := encodeJSON(r)
	got, err := appendResult([]byte("prefix"), r)
	if err == nil {
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("appendResult dropped the buffer's prefix: %q", got)
		}
		got = got[len("prefix"):]
	}
	check("result", want, wantErr, got, err)

	line := &BatchLine{Index: 3, Result: r}
	want, wantErr = encodeJSON(line)
	got, err = appendBatchLine(nil, line)
	check("batch line", want, wantErr, got, err)
}

// TestAppendResultMatchesEncodingJSON runs every registry algorithm (the
// equivParams set) on a store-backed graph, so results carry a snapshot
// stamp and a compute time, and checks the hand-written encoder against
// encoding/json on each result, cold and cached.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	g, err := gen.Family("gnp", 110, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Options{})
	h := e.RegisterStore(store.New(g))
	for _, spec := range realSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) {
			for _, pass := range []string{"cold", "cached"} {
				res, err := e.Run(context.Background(), h, spec.Name, equivParams(spec))
				if err != nil {
					t.Fatalf("%s run: %v", pass, err)
				}
				checkWire(t, WireResult(res))
			}
		})
	}
}

// TestAppendBatchLineKinds covers every shape a batch line takes: a
// result, a request error with its status, an error without a status, and
// the empty line.
func TestAppendBatchLineKinds(t *testing.T) {
	res := &Result{Algorithm: "changli", Key: "changli|eps=0.3", Kind: "decomposition",
		ClusterOf: []int32{0, 0, 1}, NumClusters: 2, Rounds: 4}
	for _, l := range []BatchLine{
		{Index: 0, Result: res},
		{Index: 7, Error: "bad request: unknown algorithm " + hostile, Status: 400},
		{Index: 2, Error: "no status"},
		{Index: -1},
		{},
	} {
		want, err := encodeJSON(&l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendBatchLine(nil, &l)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("batch line %+v: got %q (%v), want %q", l, got, err, want)
		}
	}
}

// FuzzWireResult checks the hand-written encoder against encoding/json on
// arbitrary results: hostile strings, every float class (subnormals, -0,
// the 'e'-format thresholds, MaxFloat64, NaN and the infinities), negative
// ids, nil against empty slices and maps, and nil inner clusters.
func FuzzWireResult(f *testing.F) {
	ids := func(xs ...int32) []byte {
		b := make([]byte, 0, 4*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
		return b
	}
	for _, s := range []struct {
		str    string
		ids    []byte
		m1, m2 float64
		flags  uint16
		n      int64
	}{
		{"changli", ids(0, 1, 2, -1), 0.25, 1, 0xffff, 42},
		{hostile, ids(-5, math.MaxInt32, math.MinInt32), 1e-7, 1e21, 0xffff, -3},
		{"<>&", nil, 1e-6, 999999999999999999999, 0x0055, 0},
		{hostile, ids(7), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x00aa, math.MinInt64},
		{"", ids(1, 2, 3, 4, 5), math.MaxFloat64, -math.MaxFloat64, 0x0140, math.MaxInt64},
		{"e", ids(9), 1.5e-300, 2.2250738585072014e-308, 0x0040, 1},
		{"nan", ids(1), math.NaN(), 1, 0x0040, 1},
		{"inf", ids(1), 1, math.Inf(-1), 0x0040, 1},
		{"empty", nil, 0, 0, 0x0080, 0},
	} {
		f.Add(s.str, s.ids, s.m1, s.m2, s.flags, s.n)
	}
	f.Fuzz(func(t *testing.T, str string, idBytes []byte, m1, m2 float64, flags uint16, n int64) {
		checkWire(t, fuzzResult(str, idBytes, m1, m2, flags, n))
	})
}

// fuzzResult builds a Result from fuzz inputs: idBytes supply int32 ids
// (little-endian, so negatives occur) and the solution bits; flags choose
// which optional members are set and whether they are nil or empty.
func fuzzResult(str string, idBytes []byte, m1, m2 float64, flags uint16, n int64) *Result {
	var xs []int32
	if flags&0x100 != 0 {
		xs = []int32{} // empty, not nil: still omitted
	}
	for i := 0; i+4 <= len(idBytes); i += 4 {
		xs = append(xs, int32(binary.LittleEndian.Uint32(idBytes[i:])))
	}
	r := &Result{
		Algorithm:   str,
		Key:         str + "|k=v",
		Kind:        "decomposition",
		NumClusters: int(n),
		Rounds:      int(n >> 3),
	}
	if flags&0x01 != 0 {
		r.Snapshot = str
		r.ClusterOf = xs
	}
	if flags&0x02 != 0 {
		r.ColorOf = xs
		r.NumColors = int(n >> 1)
		r.Unclustered = -int(n >> 2)
	}
	if flags&0x04 != 0 {
		r.Clusters = [][]int32{xs, nil, {}, xs[:len(xs)/2]}
	}
	if flags&0x08 != 0 {
		r.Solution = make([]bool, len(idBytes))
		for i, b := range idBytes {
			r.Solution[i] = b&1 != 0
		}
		r.Value = n
	}
	r.Exact = flags&0x10 != 0
	r.Feasible = flags&0x20 != 0
	switch {
	case flags&0x40 != 0:
		r.Metrics = map[string]float64{str: m1, "z" + str: m2, "rounds": float64(n), "ratio": m1 * m2}
	case flags&0x80 != 0:
		r.Metrics = map[string]float64{} // empty, not nil: still omitted
	}
	if flags&0x200 != 0 {
		r.ElapsedNS = n
	}
	return r
}

var nanOnce sync.Once

// registerNaNSpec registers servertest-nan, whose result carries a NaN
// metric: a value JSON cannot represent.
func registerNaNSpec() {
	nanOnce.Do(func() {
		algo.Register(&algo.Spec{
			Name:    "servertest-nan",
			Summary: "test-only: returns a NaN metric",
			Caps:    algo.Capabilities{Kind: algo.KindDecomposition},
			Run: func(ctx context.Context, g *graph.Graph, p algo.Params) (*algo.Result, error) {
				return &algo.Result{
					ClusterOf: make([]int32, g.N()), NumClusters: 1,
					Metrics: map[string]float64{"bad": math.NaN()},
				}, nil
			},
		})
	})
}

// TestUnencodableResultIs500 pins the answer to a result that cannot be
// encoded: /run answers 500 with the JSON error envelope (not a 200 with an
// empty body), and /batch reports the line as an error with status 500 and
// goes on with the next line. Encodable answers carry a Content-Length
// equal to their body.
func TestUnencodableResultIs500(t *testing.T) {
	registerNaNSpec()
	srv := New(engine.New(engine.Options{}), Options{})
	srv.AddGraph(gen.Cycle(16))
	serve := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if cl := rec.Header().Get("Content-Length"); path != "/v1/graphs/g1/batch" && cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, rec.Body.Len())
		}
		return rec
	}

	rec := serve("/v1/graphs/g1/run", `{"algo":"servertest-nan"}`)
	var eb errorBody
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || !strings.Contains(eb.Error, "NaN") {
		t.Fatalf("/run of a NaN metric: status %d, body %q; want 500 with an error naming NaN", rec.Code, rec.Body)
	}
	if rec := serve("/v1/graphs/g1/run", `{"algo":"changli"}`); rec.Code != http.StatusOK {
		t.Fatalf("/run changli: status %d: %s", rec.Code, rec.Body)
	}

	rec = serve("/v1/graphs/g1/batch", `{"algo":"servertest-nan"}`+"\n"+`{"algo":"changli"}`+"\n")
	dec := json.NewDecoder(rec.Body)
	var lines []BatchLine
	for dec.More() {
		var l BatchLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("batch stream: %v", err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("batch answered %d lines, want 2: %+v", len(lines), lines)
	}
	if l := lines[0]; l.Index != 0 || l.Status != http.StatusInternalServerError || !strings.Contains(l.Error, "NaN") || l.Result != nil {
		t.Fatalf("batch NaN line %+v; want index 0, status 500 and an error naming NaN", l)
	}
	if l := lines[1]; l.Index != 1 || l.Error != "" || l.Result == nil || l.Result.Algorithm != "changli" {
		t.Fatalf("batch line after the NaN line %+v; want the changli result", l)
	}
}
