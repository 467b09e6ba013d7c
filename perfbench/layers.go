package main

import (
	"fmt"
	"time"

	"bgpsim/internal/jobspec"
	"bgpsim/internal/machine"
	"bgpsim/internal/network"
	"bgpsim/internal/sim"
	"bgpsim/internal/topology"
)

// probeReps is how many times each microprobe repeats; the median
// repetition is reported.
const probeReps = 5

// measureLayers runs the microprobes every traced run reports: the
// event kernel's process handoff and event queue, the contention
// network and torus routing on fig2's halo traffic, and job-spec
// decoding. They time the layer in isolation, so their values do not
// depend on the workload the run was started for.
func measureLayers(cfg config, o *outcome) error {
	probes := []struct {
		name string
		fn   func() (time.Duration, int, error)
	}{
		{"sim.resume_ns", probeResume},
		{"sim.event_ns", probeEvents},
		{"network.p2p_ns", probeP2P},
		{"topology.route_ns", probeRoute},
	}
	for _, p := range probes {
		ns, err := perOp(cfg.tr, p.name, p.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		o.set(p.name, ns)
	}
	bodies := servePool(cfg.seed).bodies()
	ns, err := perOp(cfg.tr, "jobspec.Decode", func() (time.Duration, int, error) {
		t := time.Now()
		for _, b := range bodies {
			s, err := jobspec.Decode(b)
			if err != nil {
				return 0, 0, err
			}
			_ = s.Hash()
		}
		return time.Since(t), len(bodies), nil
	})
	if err != nil {
		return fmt.Errorf("jobspec.decode_us: %w", err)
	}
	o.set("jobspec.decode_us", ns/1e3)
	return nil
}

// perOp repeats a probe and returns the median nanoseconds per
// operation, recording one span per repetition.
func perOp(tr *tracer, name string, probe func() (time.Duration, int, error)) (float64, error) {
	var per []float64
	for i := 0; i < probeReps; i++ {
		sp := tr.begin(name, 0, i)
		d, n, err := probe()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// probeResume ping-pongs two processes through Spawn, Block and Wake:
// every round trip is two process resumes.
func probeResume() (time.Duration, int, error) {
	const rounds = 50000
	k := sim.NewKernel()
	var ping, pong *sim.Proc
	ping = k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			pong.Wake()
			p.Block("await pong")
		}
	})
	pong = k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Block("await ping")
			ping.Wake()
		}
	})
	t := time.Now()
	err := k.Run()
	return time.Since(t), 2 * rounds, err
}

// probeEvents churns callback events through the queue with 256 of
// them standing at any time.
func probeEvents() (time.Duration, int, error) {
	const events, standing = 500000, 256
	k := sim.NewKernel()
	r := newRand(1)
	remaining := events
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		k.After(sim.Duration(r.next()%1000+1)*sim.Nanosecond, tick)
	}
	for i := 0; i < standing; i++ {
		remaining--
		k.After(sim.Duration(r.next()%1000+1)*sim.Nanosecond, tick)
	}
	t := time.Now()
	err := k.Run()
	return time.Since(t), events, err
}

// haloPairs returns the torus and the node pairs of fig2's 512-core
// VN 32x16 TXYZ halo exchange: every rank to its four neighbours.
func haloPairs() (*topology.Torus, [][2]int) {
	const gx, gy = 32, 16
	m := machine.Get(machine.BGP)
	rpn := m.RanksPerNode(machine.VN)
	t := topology.NewTorus(topology.DimsForNodes(gx * gy / rpn))
	mp := topology.NewMapper(t, rpn, topology.MapTXYZ)
	var pairs [][2]int
	for me := 0; me < gx*gy; me++ {
		x, y := me%gx, me/gx
		at := func(x, y int) int { return ((y+gy)%gy)*gx + (x+gx)%gx }
		for _, nb := range []int{at(x, y-1), at(x, y+1), at(x-1, y), at(x+1, y)} {
			pairs = append(pairs, [2]int{mp.Place(me).Node, mp.Place(nb).Node})
		}
	}
	return t, pairs
}

// probeP2P replays the halo pairs through the contention network, one
// 8 KiB message each, advancing the clock by 1 us per exchange round.
func probeP2P() (time.Duration, int, error) {
	const rounds = 100
	t, pairs := haloPairs()
	n := network.New(machine.Get(machine.BGP), t, network.Contention)
	start := time.Now()
	var now sim.Time
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			if _, err := n.P2P(now, p[0], p[1], 8192); err != nil {
				return 0, 0, err
			}
		}
		now = now.Add(sim.Microseconds(1))
	}
	return time.Since(start), rounds * len(pairs), nil
}

// probeRoute routes the halo pairs with Torus.AppendRoute.
func probeRoute() (time.Duration, int, error) {
	const rounds = 200
	t, pairs := haloPairs()
	var buf []topology.Link
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			buf = t.AppendRoute(buf[:0], p[0], p[1])
		}
	}
	return time.Since(start), rounds * len(pairs), nil
}
