package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least ceil(q·n) samples at or below it. An empty
// slice gives 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified. An empty slice gives 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// goodput is the number of completed requests whose latency is within limit,
// per second of window. Failed requests have no latency and therefore count
// as misses.
func goodput(latencies []time.Duration, limit, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var ok int
	for _, l := range latencies {
		if l <= limit {
			ok++
		}
	}
	return float64(ok) / window.Seconds()
}

// longestGap returns the longest interval inside [start, end] that contains
// no completion. Completions outside the interval are ignored; with none
// inside, the whole interval is one gap.
func longestGap(start, end time.Time, completions []time.Time) time.Duration {
	if !end.After(start) {
		return 0
	}
	inside := make([]time.Time, 0, len(completions))
	for _, c := range completions {
		if !c.Before(start) && !c.After(end) {
			inside = append(inside, c)
		}
	}
	sort.Slice(inside, func(i, j int) bool { return inside[i].Before(inside[j]) })
	var longest time.Duration
	prev := start
	for _, c := range append(inside, end) {
		if gap := c.Sub(prev); gap > longest {
			longest = gap
		}
		prev = c
	}
	return longest
}

// durationsMs converts durations to milliseconds, sorted ascending.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// timelineRow summarizes the measured arrivals of one second of the window.
type timelineRow struct {
	second    int
	arrivals  int
	failed    int
	p50Ms     float64
	maxMs     float64
	p99Ms     float64
	completed int // completions inside this second, any arrival
}

// timeline buckets the measured arrivals by second of the window — the
// paper's Fig 10 view, which shows where in a run the failures and the slow
// requests sit.
func timeline(res *loadResult) []timelineRow {
	secs := int(math.Ceil(res.window().Seconds()))
	rows := make([]timelineRow, secs)
	lat := make([][]time.Duration, secs)
	for i := range rows {
		rows[i].second = i
	}
	for _, o := range res.outcomes {
		if o.completed() {
			if s := int(o.done.Sub(res.measureStart) / time.Second); o.done.After(res.measureStart) && s < secs {
				rows[s].completed++
			}
		}
		if !o.measured {
			continue
		}
		s := int(o.arrival.Sub(res.measureStart) / time.Second)
		if s >= secs {
			continue
		}
		rows[s].arrivals++
		if !o.completed() {
			rows[s].failed++
			continue
		}
		lat[s] = append(lat[s], o.done.Sub(o.arrival))
	}
	for i := range rows {
		ms := durationsMs(lat[i])
		rows[i].p50Ms = percentile(ms, 0.5)
		rows[i].p99Ms = percentile(ms, 0.99)
		if len(ms) > 0 {
			rows[i].maxMs = ms[len(ms)-1]
		}
	}
	return rows
}
