package main

import (
	"fmt"
	"runtime"
	"time"

	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/network"
	"bgpsim/internal/topology"
)

// The intrepid job: all 40 racks of the paper's machine (40,960 nodes,
// 163,840 VN ranks) on a periodic 512x320 process grid, exchanging
// halos with Sendrecv and finishing with a world Allreduce.
const (
	intrepidNodes = 40960
	intrepidGridX = 512
	intrepidGridY = 320
	intrepidIters = 1
	intrepidBytes = 4096
)

// intrepidPinned is the job's result at the commit that defined the
// benchmark. A change that alters any of these changed the model, not
// just its speed.
var intrepidPinned = intrepidCounts{
	elapsedPs:     67869412,
	events:        3727360,
	messages:      1310720,
	bytes:         2684354560,
	treeOps:       1,
	peakRankState: 480,
}

// intrepidCounts are the exact outputs the workload checks.
type intrepidCounts struct {
	elapsedPs, events, messages, bytes, treeOps, peakRankState int64
}

func countsOf(res *mpi.Result) intrepidCounts {
	return intrepidCounts{
		elapsedPs:     int64(res.Elapsed),
		events:        int64(res.Events),
		messages:      res.Net.Messages,
		bytes:         res.Net.Bytes,
		treeOps:       res.Net.TreeOps,
		peakRankState: res.PeakRankState,
	}
}

// haloProgram is the rank program of a gx x gy periodic halo job.
func haloProgram(gx, gy, iters, bytes int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		me := r.ID()
		x, y := me%gx, me/gx
		at := func(x, y int) int { return ((y+gy)%gy)*gx + (x+gx)%gx }
		north, south, west, east := at(x, y-1), at(x, y+1), at(x-1, y), at(x+1, y)
		for it := 0; it < iters; it++ {
			tag := 4 * it
			r.Sendrecv(north, bytes, tag, south, tag)
			r.Sendrecv(south, bytes, tag+1, north, tag+1)
			r.Sendrecv(west, bytes, tag+2, east, tag+2)
			r.Sendrecv(east, bytes, tag+3, west, tag+3)
		}
		r.World().Allreduce(r, 8, true)
	}
}

func intrepidConfig(nodes, shards int, seed uint64) mpi.Config {
	return mpi.Config{
		Machine:  machine.Get(machine.BGP),
		Nodes:    nodes,
		Mode:     machine.VN,
		Mapping:  topology.MapTXYZ,
		Fidelity: network.Analytic,
		Shards:   shards,
		Seed:     seed,
	}
}

// runIntrepidJob runs the full-machine job once and returns its exact
// counts, its result and its wall time.
func runIntrepidJob(shards int, seed uint64) (intrepidCounts, *mpi.Result, time.Duration, error) {
	t := time.Now()
	res, err := mpi.Execute(intrepidConfig(intrepidNodes, shards, seed), haloProgram(intrepidGridX, intrepidGridY, intrepidIters, intrepidBytes))
	wall := time.Since(t)
	if err != nil {
		return intrepidCounts{}, nil, wall, err
	}
	if res.Shards != shards {
		return intrepidCounts{}, nil, wall, fmt.Errorf("ran on %d shards, asked for %d", res.Shards, shards)
	}
	return countsOf(res), res, wall, nil
}

func runIntrepid(cfg config) (*outcome, error) {
	o := newOutcome()
	// Set-up: build the configuration and run the same program on one
	// rack (4,096 ranks, 64x64 grid), so code and allocator state are
	// warm before the first full-machine pass. The job draws no random
	// numbers, so the seed only reaches Config.Seed.
	setup, err := medianOf3(func() error {
		_, err := mpi.Execute(intrepidConfig(1024, cfg.nproc, cfg.seed), haloProgram(64, 64, intrepidIters, intrepidBytes))
		runtime.GC()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.set("setup_s", setup)
	o.note("job: %d nodes, %dx%d VN ranks, %d halo iterations of %d B, shards %d",
		intrepidNodes, intrepidGridX, intrepidGridY, intrepidIters, intrepidBytes, cfg.nproc)

	var last *mpi.Result
	pass := func(tr *tracer, shards, run int) (float64, error) {
		id := tr.begin(fmt.Sprintf("mpi.Execute/shards=%d", shards), 0, run)
		c, res, wall, err := runIntrepidJob(shards, cfg.seed)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		o.check(c == intrepidPinned, "shards=%d counts %+v, pinned %+v", shards, c, intrepidPinned)
		last = res
		return wall.Seconds(), nil
	}
	// between drops the finished job and collects its heap, so every
	// pass starts from the same heap. A timed pass includes it.
	between := func() { last = nil; runtime.GC() }

	if !cfg.traced() {
		walls, cpus, err := timePasses(cfg, func(i int) error {
			defer between()
			_, err := pass(nil, cfg.nproc, i)
			return err
		})
		if err != nil {
			return nil, err
		}
		setPassMetrics(o, walls, cpus)
		return o, nil
	}

	// Traced run: the sharded job untraced, then traced, then serial.
	cpu := startCPU()
	sharded, err := pass(nil, cfg.nproc, 0)
	if err != nil {
		return nil, err
	}
	o.set("mpi.shard_cpu_util", cpu.util(cfg.nproc))
	between()
	gc0 := readGC()
	traced, err := pass(cfg.tr, cfg.nproc, 1)
	if err != nil {
		return nil, err
	}
	setGC(o, gc0)
	res := last
	o.set("mpi.events", float64(res.Events))
	o.set("mpi.peak_rank_state_b", float64(res.PeakRankState))
	o.set("network.messages", float64(res.Net.Messages))
	o.set("network.bytes", float64(res.Net.Bytes))
	o.set("network.tree_ops", float64(res.Net.TreeOps))
	o.set("mpi.ns_per_event", sharded*1e9/float64(res.Events))
	o.set("mpi.events_per_s", float64(res.Events)/sharded)
	o.set("trace.overhead", traced/sharded)
	between()
	serial, err := pass(cfg.tr, 1, 2)
	if err != nil {
		return nil, err
	}
	between()
	o.set("mpi.shard_speedup", serial/sharded)
	return o, nil
}
