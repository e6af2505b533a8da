package main

import (
	"math"
	"sort"
	"time"
)

// series is one operation class's latencies in completion order and
// the wall time the class ran for.
type series struct {
	start time.Time
	lat   []time.Duration
	wall  time.Duration
}

func newSeries() *series { return &series{start: time.Now()} }

func (s *series) add(lat time.Duration) { s.lat = append(s.lat, lat) }

// stop ends the series' wall clock.
func (s *series) stop() { s.wall = time.Since(s.start) }

// latSummary is how every benchmark timing is reported: the median and
// the highest percentile that still has at least ten samples beyond it,
// with the sample count, and completions per second of wall time.
type latSummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
	PerS    float64 `json:"per_s"`
}

func (s *series) summary() latSummary {
	n := len(s.lat)
	if n == 0 {
		return latSummary{}
	}
	ds := append([]time.Duration(nil), s.lat...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	q := max(0.5, 1-10/float64(n))
	return latSummary{
		N:       n,
		P50:     ms(quantile(ds, 0.5)),
		TailPct: 100 * q,
		Tail:    ms(quantile(ds, q)),
		PerS:    float64(n) / max(s.wall, time.Millisecond).Seconds(),
	}
}

// quantile is the nearest-rank quantile of sorted ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
