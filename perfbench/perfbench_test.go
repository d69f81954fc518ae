package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graphio"
	"repro/internal/server"
)

func planFor(t *testing.T, w workload, seed uint64) *plan {
	t.Helper()
	p, err := newInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	w.plan(p, seed)
	return p
}

// The same seed gives byte-identical inputs and op streams; another seed
// gives different ones.
func TestOpStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := planFor(t, w, 7).encode()
		b := planFor(t, w, 7).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		if bytes.Equal(a, planFor(t, w, 8).encode()) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
	}
}

// The quality metrics come from a fixed prefix of the seeded schedule, so
// two runs with one seed report them exactly alike.
func TestQualityMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stack")
	}
	for _, name := range []string{"cold-solve", "hot-read"} {
		w, _ := findWorkload(name)
		var got [2]map[string]metricValue
		for i := range got {
			res, err := runWorkload(w, 3, 100*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
			}
			got[i] = res.Metrics
		}
		for _, m := range []string{"packing_value", "covering_value"} {
			if got[0][m] != got[1][m] {
				t.Errorf("%s: %s differs between runs: %v vs %v", name, m, got[0][m], got[1][m])
			}
		}
	}
}

// A hit whose reference body has been corrupted counts as a failed op.
func TestCorruptReferenceIsAFailedOp(t *testing.T) {
	w, _ := findWorkload("hot-read")
	p := planFor(t, w, 5)
	s, err := bringUp(p, w.topo, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	tg, _, err := prepare(p, s)
	if err != nil {
		t.Fatal(err)
	}
	ref := bytes.Clone(tg.keyRefs[0])
	ref[len(ref)/2] ^= 1
	tg.keyRefs[0] = ref
	stream := []op{{kind: opRun, idx: 0}, {kind: opRun, idx: 1}}
	cs := drive(tg, [][]op{stream}, 50*time.Millisecond)[0]
	if cs.failed == 0 || cs.failed == cs.ops {
		t.Fatalf("%d of %d ops failed; want exactly the reads of the corrupted key", cs.failed, cs.ops)
	}
}

// A recomputed result differs from its reference only in elapsed_ns.
func TestSameResultIgnoresComputeTime(t *testing.T) {
	ref := []byte(`{"key":"a","value":3,"elapsed_ns":1234}` + "\n")
	if err := sameResult([]byte(`{"key":"a","value":3,"elapsed_ns":99}`+"\n"), ref); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{`{"key":"a","value":4,"elapsed_ns":1234}`, `{"key":"a","value":3}`, `{"key":"a","value":3,"elapsed_ns":1234,"x":1}`} {
		if sameResult([]byte(bad+"\n"), ref) == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// The full checks reject answers that break a guarantee.
func TestCheckerRejectsBrokenResults(t *testing.T) {
	for _, name := range []string{"hot-read", "churn"} {
		checkerRejects(t, name)
	}
}

func checkerRejects(t *testing.T, name string) {
	w, _ := findWorkload(name)
	p := planFor(t, w, 5)
	s, err := bringUp(p, w.topo, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	c := newChecker()
	for k, bodies := range s.warmBodies {
		key := p.keys[k]
		g := p.graphs[key.role]
		r, err := c.checkRun(key, g, bodies[0])
		if err != nil {
			t.Fatalf("valid answer rejected: %v", err)
		}
		u := 0
		for g.Degree(u) == 0 {
			u++
		}
		v := g.Neighbors(u)[0]
		switch key.fam {
		case famChangli:
			// Put one endpoint of a clustered edge in a cluster of its own.
			r.ClusterOf[u], r.ClusterOf[v] = 0, int32(r.NumClusters)
			r.NumClusters++
		case famPacking:
			r.Solution[u], r.Solution[v] = true, true
		case famCovering:
			for i := range r.Solution {
				r.Solution[i] = false
			}
			r.Value = 0
		case famNet:
			r.ClusterOf[u], r.ClusterOf[v] = 0, 1
			r.ColorOf[u], r.ColorOf[v] = 0, 0
		}
		broken, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.checkRun(key, g, broken); err == nil {
			t.Errorf("%s: broken answer accepted", familyNames[key.fam])
		}
	}
}

// The history check accepts a consistent run and fails a client that reads
// an older snapshot after a newer one, or an acknowledged write the delta
// log does not hold.
func TestHistoryChecks(t *testing.T) {
	w, _ := findWorkload("churn")
	p := planFor(t, w, 5)
	fp0, fp1 := strings.Repeat("0", 64), strings.Repeat("1", 64)
	log := []server.WireDelta{{Op: graphio.OpAddEdge, U: 0, V: 1, Epoch: 1, Fingerprint: fp1}}
	ack := writeRec{role: roleBig, add: true, u: 1, v: 0,
		body: []byte(`{"applied":true,"epoch":1,"fingerprint":"` + fp1 + `","m":1}`)}
	cs := &clientStats{writeLog: []writeRec{ack}, snaps: []string{fp0, fp1}}
	if failed, errs := history(p, log, fp0, roleBig, []*clientStats{cs}); failed != 0 {
		t.Fatalf("a consistent run failed: %v", errs)
	}
	back := &clientStats{writeLog: cs.writeLog, snaps: []string{fp1, fp0}}
	if failed, _ := history(p, log, fp0, roleBig, []*clientStats{back}); failed != 1 {
		t.Errorf("epoch going back: %d failures, want 1", failed)
	}
	lost := &clientStats{writeLog: []writeRec{ack, ack}, snaps: cs.snaps}
	if failed, _ := history(p, log, fp0, roleBig, []*clientStats{lost}); failed != 1 {
		t.Errorf("a write acknowledged but not logged: %d failures, want 1", failed)
	}
}

// BENCHMARK.json and this program declare the same workloads and metrics,
// with the same units, and the metric guide documents every per-layer
// metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("workload %s is not in the program", wl.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	guide, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayerMetrics {
		if !bytes.Contains(guide, []byte("`"+m.name+"`")) {
			t.Errorf("METRICS.md does not document %s", m.name)
		}
	}
}

// The yardstick answers every chunk, and a run at the nominal chunk time
// reports its times unscaled.
func TestYardstick(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	chunks, err := y.burst(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range chunks {
		if ns <= 0 {
			t.Fatalf("chunk took %d ns", ns)
		}
	}
	if k := scaleOf([]int64{yardstickNominal.Nanoseconds()}); k != 1 {
		t.Errorf("scale at the nominal chunk is %v, want 1", k)
	}
}
