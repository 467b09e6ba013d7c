package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"bgpsim/internal/jobspec"
)

// The serve pool: four times as many job specs as the daemon's
// 64-entry result cache, requested with a shallow Zipf popularity, so
// about 60% of requests miss and the median request runs a simulation.
// Hits, misses and evictions all occur. Spec i costs roughly the same
// at every seed: its shape comes from a fixed cycle, and the seed only
// varies message sizes, which change the job's hash but barely its
// cost.
const (
	poolSize = 256
	zipfS    = 0.6
)

// shape is one job shape of the pool. The costs in the comments are
// single jobspec.Run times on a 2-CPU host.
type shape struct {
	kind, bench string
	ranks       int
	gx, gy      int
	iters       int
	traced      bool // request the trace and profile artifacts
}

// shapes cycle over the pool's ranks. Each costs a few milliseconds:
// the median request is a miss, and with misses this cheap the window
// stays far below the daemon's capacity at a rate that gathers enough
// requests for p99 in about 20 s.
var shapes = []shape{
	{kind: "bench", bench: "allreduce", ranks: 512},               // ~5 ms
	{kind: "halo", gx: 8, gy: 8, iters: 5},                        // ~5 ms
	{kind: "bench", bench: "barrier", ranks: 512},                 // ~6 ms
	{kind: "bench", bench: "bcast", ranks: 512},                   // ~4 ms
	{kind: "halo", gx: 16, gy: 8, iters: 2},                       // ~8 ms
	{kind: "bench", bench: "allreduce", ranks: 256, traced: true}, // ~5 ms
	{kind: "bench", bench: "allreduce", ranks: 1024},              // ~10 ms
	{kind: "halo", gx: 8, gy: 8, iters: 3, traced: true},          // ~5 ms
	{kind: "bench", bench: "alltoall", ranks: 32},                 // ~6 ms
	{kind: "bench", bench: "barrier", ranks: 1024},                // ~8 ms
}

// pool is the seeded list of request bodies, most popular first.
type pool struct {
	specs []jobspec.Spec
	share []float64 // Zipf popularity by rank, summing to 1
}

func servePool(seed uint64) pool {
	r := newRand(seed ^ 0x5e47e)
	p := pool{}
	seen := map[string]bool{}
	for len(p.specs) < poolSize {
		sh := shapes[len(p.specs)%len(shapes)]
		s := jobspec.Spec{Kind: sh.kind, Trace: sh.traced, Profile: sh.traced}
		switch sh.kind {
		case "bench":
			s.Bench, s.Ranks = sh.bench, sh.ranks
			b := 8 * (1 + int(r.next()%128)) // 8 B .. 1 KiB
			if sh.bench == "alltoall" {
				b = 256 + 8*int(r.next()%128)
			}
			s.Bytes = &b
		case "halo":
			s.GridX, s.GridY, s.Iterations = sh.gx, sh.gy, sh.iters
			s.Words = 500 + int(r.next()%1000)
		}
		c := s.Canonical()
		if h := c.Hash(); !seen[h] {
			seen[h] = true
			p.specs = append(p.specs, c)
		}
	}
	total := 0.0
	for i := range p.specs {
		p.share = append(p.share, 1/math.Pow(float64(i+1), zipfS))
		total += p.share[i]
	}
	for i := range p.share {
		p.share[i] /= total
	}
	return p
}

// bodies returns each spec's JSON request body.
func (p pool) bodies() [][]byte {
	out := make([][]byte, len(p.specs))
	for i, s := range p.specs {
		b, err := json.Marshal(s)
		if err != nil {
			panic(fmt.Sprintf("perfbench: marshal spec: %v", err)) // a Spec always marshals
		}
		out[i] = b
	}
	return out
}

// draws returns n spec ranks in Zipf proportion: each rank appears its
// popularity's share of n times (largest remainders rounding), in a
// seeded order. Fixing the counts rather than drawing each request
// keeps the share of cache misses, and so the daemon's work, the same
// at every seed; the seed decides the order, and with it which
// requests miss.
func (p pool) draws(n int, r *rng) []int {
	counts := make([]int, len(p.share))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, len(p.share))
	left := n
	for i, sh := range p.share {
		x := sh * float64(n)
		counts[i] = int(x)
		left -= counts[i]
		rems[i] = rem{i, x - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; k < left; k++ {
		counts[rems[k%len(rems)].i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// arrival is one scheduled request: when it is due, relative to the
// start of its phase, and which pool spec it asks for.
type arrival struct {
	due  time.Duration
	spec int
}

// schedule draws an open-loop phase of n requests: Poisson arrivals
// at rate per second, asking for specs in Zipf proportion.
func schedule(p pool, r *rng, rate float64, n int) []arrival {
	specs := p.draws(n, r)
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += r.exp() / rate
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), spec: specs[i]}
	}
	return out
}
