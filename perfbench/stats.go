package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a tail is reported at, lowest
// first. A tail is only as high as the sample supports.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest ladder percentile, no higher
// than want, that has at least ten of n samples beyond it. ok is false
// when even the median lacks ten samples beyond it.
func supportedPercentile(n int, want float64) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		q := percentileLadder[i]
		if q > want {
			continue
		}
		if float64(n)*(1-q/100) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. Failed operations enter as +Inf, so they count as
// missing any limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tail summarises one latency sample: its median, the highest
// supported percentile up to want, and the sample count.
type tail struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// P is the percentile Tail reports; it is lower than the one asked
	// for when the sample is too small.
	P    float64 `json:"p"`
	Tail float64 `json:"tail"`
}

func summarize(xs []float64, want float64) tail {
	return summarizeWindows(xs, 1, want)
}

// summarizeWindows splits a time-ordered sample into k consecutive
// windows and reports the median over windows of each window's median
// and tail. A burst of host noise then spoils one window rather than
// the whole run. The tail is taken at the highest percentile up to
// want that every window supports.
func summarizeWindows(xs []float64, k int, want float64) tail {
	k = max(1, min(k, len(xs)))
	t := tail{N: len(xs)}
	p, ok := supportedPercentile(len(xs)/k, want)
	if !ok {
		p = 100
	}
	t.P = p
	var p50s, tails []float64
	for w := 0; w < k; w++ {
		win := append([]float64(nil), xs[w*len(xs)/k:(w+1)*len(xs)/k]...)
		p50s = append(p50s, center(win))
		tails = append(tails, percentile(win, p))
	}
	t.P50, t.Tail = median(p50s), median(tails)
	return t
}

// center estimates the median of xs, which it sorts in place, as the
// mean of the samples from the 40th to the 60th percentile. Job times
// come in modes a whole epoch apart, and a plain median jumps from one
// mode to the next when their shares shift by a job or two; this
// estimator moves smoothly with the shares.
func center(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	lo, hi := len(xs)*2/5, max(len(xs)*3/5, len(xs)*2/5+1)
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quietCenter splits a time-ordered sample into k consecutive windows
// and returns the lower quartile over windows of each window's center.
// Other tenants of a shared host slow the program in episodes that
// cover part of a run; the quieter windows show the program's own
// speed, and a change that slows every operation slows them as much as
// the rest.
func quietCenter(xs []float64, k int) float64 {
	k = max(1, min(k, len(xs)))
	var cs []float64
	for w := 0; w < k; w++ {
		cs = append(cs, center(append([]float64(nil), xs[w*len(xs)/k:(w+1)*len(xs)/k]...)))
	}
	return percentile(cs, 25)
}

// median is the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// span is one interval in a traced operation's tree. Parent indexes
// the enclosing span in the same slice; -1 marks the root, the
// operation's end-to-end interval.
type span struct {
	layer      string
	start, end time.Time
	parent     int
}

// selfTimes returns each layer's self time summed over spans: a span's
// duration minus the part of its interval that its children cover.
// Spans list parents before their children. Children are clipped to
// their parent and overlapping children count once, so the self times
// of a tree sum to the root's duration.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	// Clip every span to its parent, parents first, so no layer is
	// charged for time outside the operation.
	spans = append([]span(nil), spans...)
	for i := range spans {
		if p := spans[i].parent; p >= 0 && p < i {
			if spans[i].start.Before(spans[p].start) {
				spans[i].start = spans[p].start
			}
			if spans[i].end.After(spans[p].end) {
				spans[i].end = spans[p].end
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if !s.end.After(s.start) {
			continue
		}
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			if a, b := spans[c].start, spans[c].end; b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		for k := 0; k < len(ivs); {
			cur := ivs[k]
			for k++; k < len(ivs) && !ivs[k].a.After(cur.b); k++ {
				if ivs[k].b.After(cur.b) {
					cur.b = ivs[k].b
				}
			}
			covered += cur.b.Sub(cur.a)
		}
		out[s.layer] += s.end.Sub(s.start) - covered
	}
	return out
}

// accounting accumulates self times over many traced operations and
// reports how much of their end-to-end time the named layers explain.
type accounting struct {
	total time.Duration
	self  map[string]time.Duration
	// root is the layer name of the end-to-end span; its self time is
	// the part no layer span covers.
	root string
}

func newAccounting(root string) *accounting {
	return &accounting{root: root, self: map[string]time.Duration{}}
}

func (a *accounting) add(spans []span) {
	for _, s := range spans {
		if s.parent < 0 && s.end.After(s.start) {
			a.total += s.end.Sub(s.start)
		}
	}
	for layer, d := range selfTimes(spans) {
		a.self[layer] += d
	}
}

// coverage is the sum of the layers' self times as a share of the
// summed end-to-end time.
func (a *accounting) coverage() float64 {
	if a.total <= 0 {
		return 0
	}
	var named time.Duration
	for layer, d := range a.self {
		if layer != a.root {
			named += d
		}
	}
	return named.Seconds() / a.total.Seconds()
}

// shares reports each layer's self time as a share of the end-to-end
// time, the root's share being the unattributed remainder.
func (a *accounting) shares() map[string]float64 {
	out := make(map[string]float64, len(a.self))
	if a.total <= 0 {
		return out
	}
	for layer, d := range a.self {
		out[layer] = d.Seconds() / a.total.Seconds()
	}
	return out
}

// quantiles lists a sample's percentiles along the ladder, for the run
// record.
func quantiles(xs []float64) map[string]float64 {
	cp := append([]float64(nil), xs...)
	out := map[string]float64{}
	for _, p := range percentileLadder {
		out[fmt.Sprintf("p%g", p)] = percentile(cp, p)
	}
	return out
}
