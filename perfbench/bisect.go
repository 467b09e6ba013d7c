package main

import (
	"fmt"
	"time"

	"bgpsim/internal/apps/pop"
	"bgpsim/internal/machine"
	"bgpsim/internal/power"
)

// The bisect workload is table3's fixed-throughput search, reduced so
// a pass takes seconds: the fewest cores at which POP (VN mode,
// ChronGear solver) reaches bisectTarget simulated years per day.
const (
	bisectTarget = 0.25
	bisectLo     = 64
	bisectHi     = 1024
)

var bisectMachines = []machine.ID{machine.BGP, machine.XT4QC}

// bisectPinned is each machine's search result at the commit that
// defined the benchmark: the core count found and the model calls the
// search made.
var bisectPinned = map[machine.ID]struct{ cores, probes int }{
	machine.BGP:   {544, 10},
	machine.XT4QC: {110, 11},
}

// search runs one machine's search with a fresh (unmemoized) model,
// records a span per model call and the seconds of each call that ran
// a simulation.
func search(o *outcome, tr *tracer, id machine.ID, parent, run int, probeSecs *[]float64) error {
	model := pop.SYDModel(id, machine.VN, pop.ChronopoulosGear)
	probes := 0
	seen := map[int]bool{}
	timed := func(cores int) float64 {
		probes++
		t := time.Now()
		sp := tr.begin("pop.Run", parent, run)
		v := model(cores)
		tr.end(sp)
		if !seen[cores] {
			seen[cores] = true
			*probeSecs = append(*probeSecs, time.Since(t).Seconds())
		}
		return v
	}
	ft, err := power.AtThroughput(machine.Get(id), bisectTarget, bisectLo, bisectHi, timed)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	want := bisectPinned[id]
	o.check(ft.Cores == want.cores && probes == want.probes,
		"%s: %d cores in %d probes, pinned %d in %d", id, ft.Cores, probes, want.cores, want.probes)
	o.values["power.probes"] += float64(probes)
	return nil
}

func runBisect(cfg config) (*outcome, error) {
	o := newOutcome()
	// Set-up: one small POP run per machine so code and allocator state
	// are warm before the first search.
	setup, err := medianOf3(func() error {
		for _, id := range bisectMachines {
			if _, err := pop.Run(pop.Options{Machine: id, Mode: machine.VN, Procs: 4 * bisectLo, Solver: pop.ChronopoulosGear}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.set("setup_s", setup)
	// The searches' outputs are pinned, so their inputs are fixed and
	// the seed changes nothing. The machine order is fixed too: XT4/QC
	// first ran about 10% slower on average than BG/P first, which
	// would widen the spread between seeds.
	o.note("target %.2f SYD over [%d, %d] cores", bisectTarget, bisectLo, bisectHi)

	var probeSecs []float64
	pass := func(tr *tracer, run int) error {
		root := tr.begin("power.AtThroughput", 0, run)
		defer tr.end(root)
		for _, id := range bisectMachines {
			if err := search(o, tr, id, root, run, &probeSecs); err != nil {
				return err
			}
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

	untraced, err := timeOnce(func() error { return pass(nil, 0) })
	if err != nil {
		return nil, err
	}
	o.values["power.probes"] = 0
	probeSecs = probeSecs[:0]
	gc0, cpu := readGC(), startCPU()
	traced, err := timeOnce(func() error { return pass(cfg.tr, 1) })
	if err != nil {
		return nil, err
	}
	o.set("power.cpu_util", cpu.util(cfg.nproc))
	setGC(o, gc0)
	o.set("pop.run_s", median(probeSecs))
	o.set("trace.overhead", traced/untraced)
	return o, nil
}
