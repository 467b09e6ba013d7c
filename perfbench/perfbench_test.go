package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/stats"
)

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range want {
			if i < len(got) && (got[i].name != want[i].Name || got[i].unit != want[i].Unit) {
				t.Errorf("%s[%d]: code has %s [%s], BENCHMARK.json %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// runCommand runs one workload through run, as the command does, and
// returns the result line.
func runCommand(t *testing.T, name string, trace int) result {
	t.Helper()
	old := os.Stdout
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(rd)
		out <- b
	}()
	runErr := run(name, 3, 1, trace, "..", "")
	wr.Close()
	os.Stdout = old
	lines := strings.Split(strings.TrimSpace(string(<-out)), "\n")
	if runErr != nil {
		t.Fatal(runErr)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return r
}

// TestCommandEmitsEveryMetric runs the bisect workload, the quickest,
// untraced and traced, and requires every metric BENCHMARK.json names
// for that mode, with its unit.
func TestCommandEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for several seconds")
	}
	bj := readBenchmarkJSON(t)
	for trace, defs := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
		r := runCommand(t, "bisect", trace)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics emitted, BENCHMARK.json names %d", trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: %s emitted as %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
		for _, name := range []string{"setup_s", "wall_s", "power.probes", "pop.run_s", "sim.resume_ns"} {
			if m, ok := r.Metrics[name]; ok && m.Value <= 0 {
				t.Errorf("trace %d: %s = %v, want > 0", trace, name, m.Value)
			}
		}
	}
}

func TestBuildResultRequiresEveryEndToEndMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	for _, d := range endToEnd[1:] {
		o.set(d.name, 1)
	}
	if _, err := buildResult(o, false); err == nil {
		t.Errorf("a result missing %s was accepted", endToEnd[0].name)
	}
	r, err := buildResult(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, want every per-layer one (%d)", len(r.Metrics), len(perLayer))
	}
}

func TestPercentileArithmetic(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p          float64
		v          float64
		beyondWant int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {99.5, 100, 0}, {1, 1, 99}} {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyondWant {
			t.Errorf("p%v of 1..100 = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyondWant)
		}
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 || median([]float64{5, 1, 3}) != 3 {
		t.Error("median of an even or odd sample is wrong")
	}
	// p99 has ten samples beyond it from 1,000 samples on, not at 999.
	for n, want := range map[int]int{1000: 10, 999: 9, 1100: 11} {
		if _, beyond := percentile(make([]float64, n), 99); beyond != want {
			t.Errorf("p99 of %d samples has %d beyond, want %d", n, beyond, want)
		}
	}
}

// TestLatencyCountsFromDueTime drives a server that takes 50 ms per
// request through one connection: the second request, due 10 ms after
// the first, must wait for the first to finish, and that wait counts
// in its latency even though the server spent only 50 ms on it.
func TestLatencyCountsFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(50 * time.Millisecond)
		w.Header().Set("X-Bgpsimd-Cache", "miss")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	g := &loadgen{d: &daemon{base: srv.URL}, client: &http.Client{Transport: transport}, bodies: [][]byte{[]byte("{}")}, conns: 1}
	ph := g.runPhase([]arrival{{due: 0}, {due: 10 * time.Millisecond}}, 0)
	first, second := ph.reqs[0].lat, ph.reqs[1].lat
	if d := first.fromDue(); d < 50*time.Millisecond || d > 80*time.Millisecond {
		t.Errorf("first request: %v from due, want about 50ms", d)
	}
	if d := second.fromDue(); d < 90*time.Millisecond {
		t.Errorf("second request: %v from due, want >= 90ms (40ms waiting plus 50ms served)", d)
	}
	if l := second.late(); l > 5*time.Millisecond {
		t.Errorf("the generator released the second request %v late", l)
	}
	if ph.backlog < 1 {
		t.Errorf("backlog at the last due time = %d, want the unanswered first request counted", ph.backlog)
	}
}

func TestCorruptedSweepOutputFails(t *testing.T) {
	tb := &stats.Table{Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	txt, csv := render([]*stats.Table{tb})
	ref := reference{txt, csv}

	o := newOutcome()
	checkSweep(o, "fig0", []*stats.Table{tb}, ref)
	if o.failed != 0 || o.attempted != 2 {
		t.Fatalf("matching output: attempted %d failed %d, want 2 and 0", o.attempted, o.failed)
	}
	tb.Rows[0][1] = "3"
	checkSweep(o, "fig0", []*stats.Table{tb}, ref)
	if o.failed != 2 {
		t.Errorf("corrupted cell: failed %d, want both files counted", o.failed)
	}
}

func TestCorruptedServeBodyFails(t *testing.T) {
	spec, err := jobspec.Decode([]byte(warmSpec))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := referenceDoc(spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(doc, []byte(`"stdout":"`), []byte(`"stdout":"x`), 1)
	specs := []jobspec.Spec{spec}

	o := newOutcome()
	served := checkBodies(o, []*request{{spec: 0, body: doc}, {spec: 0, body: doc}})
	checkReference(o, specs, served, nil, 1)
	if o.failed != 0 || o.attempted != 3 {
		t.Fatalf("correct bodies: attempted %d failed %d, want 3 and 0", o.attempted, o.failed)
	}

	o = newOutcome()
	checkBodies(o, []*request{{spec: 0, body: doc}, {spec: 0, body: bad}, {spec: 0, outcome: outRejected}})
	if o.failed != 2 {
		t.Errorf("a hit differing from its miss plus a rejection: failed %d, want 2", o.failed)
	}

	o = newOutcome()
	checkReference(o, specs, map[int][]byte{0: bad}, nil, 1)
	if o.failed != 1 {
		t.Errorf("a served body differing from jobspec.Run: failed %d, want 1", o.failed)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Name: "a", Start: at(10), End: at(40), Parent: 1},
		{ID: 3, Name: "b", Start: at(30), End: at(60), Parent: 1},  // overlaps a
		{ID: 4, Name: "c", Start: at(90), End: at(120), Parent: 1}, // runs past the root
		{ID: 5, Name: "d", Start: at(15), End: at(20), Parent: 2},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40 * time.Millisecond, 2: 25 * time.Millisecond, 3: 30 * time.Millisecond, 5: 5 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestDrawsKeepZipfCounts(t *testing.T) {
	p := servePool(7)
	if len(p.specs) != poolSize {
		t.Fatalf("pool has %d specs, want %d", len(p.specs), poolSize)
	}
	a := p.draws(1500, newRand(1))
	b := p.draws(1500, newRand(2))
	if len(a) != 1500 || len(b) != 1500 {
		t.Fatalf("draws returned %d and %d ranks, want 1500", len(a), len(b))
	}
	count := func(xs []int) map[int]int {
		m := map[int]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for i := range p.specs {
		if ca[i] != cb[i] {
			t.Errorf("rank %d drawn %d and %d times at two seeds; counts must not depend on the seed", i, ca[i], cb[i])
		}
	}
	if want := 1500 / (1 + 0.0) / harmonic(poolSize); math.Abs(float64(ca[0])-want) > 1 {
		t.Errorf("rank 0 drawn %d times, want about %.0f", ca[0], want)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("two seeds gave the same order")
	}
}

func harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), zipfS)
	}
	return h
}
