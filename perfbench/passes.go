package main

import (
	"math"
	"time"
)

// timePasses runs pass back to back and returns each pass's wall and
// CPU seconds. It always runs one pass, and starts another only while
// the median pass so far still fits in the run's seconds, so a run
// measures for at most its seconds unless a single pass is longer.
func timePasses(cfg config, pass func(i int) error) (walls, cpus []float64, err error) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+median(walls) <= cfg.seconds.Seconds(); i++ {
		t, c := time.Now(), cpuTime()
		if err := pass(i); err != nil {
			return nil, nil, err
		}
		walls = append(walls, time.Since(t).Seconds())
		cpus = append(cpus, (cpuTime() - c).Seconds())
	}
	return walls, cpus, nil
}

// timeOnce runs step once and returns its wall seconds.
func timeOnce(step func() error) (float64, error) {
	t := time.Now()
	err := step()
	return time.Since(t).Seconds(), err
}

// setPassMetrics reports a batch workload's end-to-end metrics from
// its pass times. Each pass is one request, due when the previous one
// finished, so its latency is its wall time.
func setPassMetrics(o *outcome, walls, cpus []float64) {
	o.set("cpu_ms", median(cpus)*1e3)
	sum, slowest := 0.0, 0.0
	for _, w := range walls {
		sum += w
		slowest = math.Max(slowest, w)
	}
	o.set("wall_s", median(walls))
	o.set("p50_ms", median(walls)*1e3)
	o.set("max_rps", float64(len(walls))/sum)
	o.set("peak_rss_mib", peakRSSMiB())
	o.note("%d passes: wall_s median %.4f, slowest %.4f", len(walls), median(walls), slowest)
}

// medianOf3 runs a set-up step three times and returns the median
// seconds, so one slow start does not move setup_s.
func medianOf3(step func() error) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t, err := timeOnce(step)
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
	}
	return median(ts), nil
}

// permutation returns a seeded order of n items (Fisher-Yates over a
// splitmix64 stream), used to vary the order of independent calls.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := newRand(seed)
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// rng is splitmix64: small, seedable and stable across Go releases, so
// a seed names the same inputs on every toolchain.
type rng struct{ s uint64 }

func newRand(seed uint64) *rng { return &rng{seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }
