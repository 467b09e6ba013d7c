package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs together with the number of samples ranked beyond it. The
// nearest-rank value is the smallest sample with at least p% of the
// samples at or below it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// latency is one open-loop operation: when it was due, when the
// generator actually sent it, and when its result arrived.
type latency struct {
	due, sent, done time.Time
}

// fromDue is the operation's latency counted from when it was due, so
// a stall that delays sending is charged to every request it delays.
func (l latency) fromDue() time.Duration { return l.done.Sub(l.due) }

// late is how far behind schedule the generator sent the operation.
func (l latency) late() time.Duration {
	if l.sent.Before(l.due) {
		return 0
	}
	return l.sent.Sub(l.due)
}
