package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bgpsim/internal/apps/pop"
	"bgpsim/internal/halo"
	"bgpsim/internal/imb"
	"bgpsim/internal/machine"
	"bgpsim/internal/paper"
	"bgpsim/internal/runner"
	"bgpsim/internal/stats"
	"bgpsim/internal/topology"
)

// sweepIDs are the experiments of the sweep workload: about a hundred
// independent HALO, IMB and POP simulations fanned out through runner.
var sweepIDs = []string{"fig2", "fig3", "fig4"}

// render formats an experiment's tables exactly as cmd/paper writes
// its -out files.
func render(tables []*stats.Table) (txt, csv string) {
	var t, c strings.Builder
	for _, tb := range tables {
		t.WriteString(tb.String())
		if tb.Chart != "" {
			t.WriteString("\n" + tb.Chart)
		}
		t.WriteString("\n")
		c.WriteString("# " + tb.Title + "\n")
		c.WriteString(tb.CSV())
		c.WriteString("\n")
	}
	return t.String(), c.String()
}

// warmModels runs one small simulation of each model family the
// sweep's experiments use.
func warmModels() error {
	if _, err := halo.Run(halo.Options{Machine: machine.BGP, Mode: machine.VN, GridX: 16, GridY: 8,
		Mapping: topology.MapTXYZ, Protocol: halo.IsendIrecv, Words: 128, Iterations: 3}); err != nil {
		return err
	}
	if _, err := imb.AllreduceVsProcs([]int{16, 64}); err != nil {
		return err
	}
	_, err := pop.Run(pop.Options{Machine: machine.BGP, Mode: machine.VN, Procs: 256, Solver: pop.ChronopoulosGear})
	return err
}

// reference holds the committed reduced-scale output of one experiment.
type reference struct{ txt, csv string }

func loadReferences(root string) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, id := range sweepIDs {
		base := filepath.Join(root, "results", "reduced", id)
		txt, err := os.ReadFile(base + ".txt")
		if err != nil {
			return nil, err
		}
		csv, err := os.ReadFile(base + ".csv")
		if err != nil {
			return nil, err
		}
		refs[id] = reference{string(txt), string(csv)}
	}
	return refs, nil
}

// checkSweep compares one experiment's rendered tables with its
// reference files, counting each file as one check.
func checkSweep(o *outcome, id string, tables []*stats.Table, ref reference) {
	txt, csv := render(tables)
	o.check(txt == ref.txt, "%s.txt differs from results/reduced/%s.txt", id, id)
	o.check(csv == ref.csv, "%s.csv differs from results/reduced/%s.csv", id, id)
}

func runSweep(cfg config) (*outcome, error) {
	o := newOutcome()
	var refs map[string]reference
	var exps []paper.Experiment
	// Set-up: read the references, size the runner pool to the host
	// and run one small simulation of each model family the experiments
	// use (HALO, IMB, POP), so code and allocator state are warm before
	// the first timed pass.
	setup, err := medianOf3(func() error {
		var err error
		if refs, err = loadReferences(cfg.root); err != nil {
			return err
		}
		runner.SetWorkers(cfg.nproc)
		exps = exps[:0]
		for _, id := range sweepIDs {
			e, err := paper.Get(id)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
		return warmModels()
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.set("setup_s", setup)
	order := permutation(cfg.seed, len(exps))
	o.note("experiment order %v, runner workers %d", order, cfg.nproc)

	pass := func(tr *tracer, run int) error {
		root := tr.begin("pass", 0, run)
		defer tr.end(root)
		for _, i := range order {
			e := exps[i]
			id := tr.begin("paper."+e.ID, root, run)
			tables, err := e.Run(paper.Options{})
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			checkSweep(o, e.ID, tables, refs[e.ID])
		}
		return nil
	}

	if !cfg.traced() {
		walls, cpus, err := timePasses(cfg, func(i int) error { return pass(nil, i) })
		if err != nil {
			return nil, err
		}
		setPassMetrics(o, walls, cpus)
		return o, nil
	}

	// Traced run: one untraced pass, then one traced pass measured for
	// CPU use and GC; the ratio of their wall times is the overhead.
	untraced, err := timeOnce(func() error { return pass(nil, 0) })
	if err != nil {
		return nil, err
	}
	gc0, cpu := readGC(), startCPU()
	traced, err := timeOnce(func() error { return pass(cfg.tr, 1) })
	if err != nil {
		return nil, err
	}
	o.set("runner.cpu_util", cpu.util(cfg.nproc))
	setGC(o, gc0)
	for _, id := range sweepIDs {
		o.set("paper."+id+"_s", median(cfg.tr.durations("paper."+id)))
	}
	o.set("trace.overhead", traced/untraced)
	return o, nil
}
