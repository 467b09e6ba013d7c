// Command perfbench is bgpsim's benchmark: one command that runs a
// named workload, checks every output it produces, and prints the
// workload's metrics. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1
// the run records spans around every call it makes into a layer and
// reports the per-layer metrics instead. METRICS.md lists the
// workloads, the metrics and which end-to-end metric each layer
// metric should move.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what every workload receives.
type config struct {
	root    string // repository root (results/ lives here)
	bgpsimd string // path to the built daemon
	seed    uint64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil unless -trace 1
}

func (c config) traced() bool { return c.tr != nil }

// outcome is one workload run: its metric values, the operations it
// attempted and how many failed (an error, a rejected request or an
// output that did not match its reference).
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable report lines, printed first
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts one output check; a mismatch is a failed operation and
// is reported.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.note("CHECK FAILED: "+format, args...)
	}
}

type workload struct {
	name string
	run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"sweep", runSweep},
	{"intrepid", runIntrepid},
	{"bisect", runBisect},
	{"serve", runServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult turns an outcome into the result line. With trace off it
// requires every end-to-end metric; with trace on, every per-layer
// metric, where a layer the workload never calls reads 0.
func buildResult(o *outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("workload did not measure %s", d.name)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	if r.Attempted < 1 {
		return result{}, fmt.Errorf("workload attempted no operations")
	}
	r.Correct = r.Failed == 0
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, intrepid, bisect or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "seconds of timed work")
	trace := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	root := flag.String("root", ".", "repository root")
	daemon := flag.String("bgpsimd", "", "path to the bgpsimd binary (serve workload)")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *root, *daemon); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, root, daemon string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have sweep, intrepid, bisect, serve)", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	cfg := config{root: root, bgpsimd: daemon, seed: seed, seconds: time.Duration(seconds) * time.Second, nproc: runtime.NumCPU()}
	if trace == 1 {
		cfg.tr = &tracer{}
	}
	o, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cfg.traced() {
		if err := measureLayers(cfg, o); err != nil {
			return err
		}
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := cfg.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		o.note("spans written to %s", path)
	}
	r, err := buildResult(o, cfg.traced())
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d nproc=%d %s\n", name, seed, seconds, trace, cfg.nproc, runtime.Version())
	for _, n := range o.notes {
		fmt.Println(" ", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
