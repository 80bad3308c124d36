package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{n: 9, want: 99, ok: false},
		{n: 19, want: 99, ok: false},
		{n: 20, want: 99, p: 50, ok: true},
		{n: 39, want: 99, p: 50, ok: true},
		{n: 40, want: 99, p: 75, ok: true},
		{n: 100, want: 99, p: 90, ok: true},
		{n: 199, want: 99, p: 90, ok: true},
		{n: 200, want: 99, p: 95, ok: true},
		{n: 999, want: 99, p: 95, ok: true},
		{n: 1000, want: 99, p: 99, ok: true},
		{n: 1000000, want: 99, p: 99, ok: true},
		{n: 10000, want: 99.9, p: 99.9, ok: true},
		{n: 1000, want: 95, p: 95, ok: true},
	} {
		p, ok := supportedPercentile(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 down to 1
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// A failed operation enters as +Inf and lands in the tail.
	s := summarize(append(xs, inf), 95)
	if s.N != 201 || s.P != 95 || s.Tail != 191 {
		t.Errorf("summarize with a failure = %+v", s)
	}
	if s := summarize(make([]float64, 5), 99); s.P != 100 {
		t.Errorf("a sample too small for any percentile reports its maximum, got p%g", s.P)
	}
	// The center estimator averages the 40th to 60th percentiles.
	if c := center([]float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}); c != 5.5 {
		t.Errorf("center(1..10) = %v, want 5.5 (mean of 5 and 6)", c)
	}
	if c := center([]float64{4}); c != 4 {
		t.Errorf("center of one sample = %v", c)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestQuietCenter(t *testing.T) {
	// Eight windows of four samples; the slow ones are where a neighbour
	// took the CPUs. The lower quartile over windows is the second
	// fastest window's center.
	var xs []float64
	for _, c := range []float64{10, 30, 11, 12, 40, 13, 35, 14} {
		xs = append(xs, c-1, c, c, c+1)
	}
	if got := quietCenter(xs, 8); got != 11 {
		t.Errorf("quietCenter = %v, want 11", got)
	}
	// The sample is not reordered, and over one window the result is the
	// center of the whole sample.
	if xs[4] != 29 {
		t.Errorf("quietCenter sorted its input: %v", xs[:8])
	}
	if got := quietCenter(xs, 1); got != center(append([]float64(nil), xs...)) {
		t.Errorf("quietCenter over one window = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{layer: "client", start: at(0), end: at(100), parent: -1},
		{layer: "wire", start: at(10), end: at(90), parent: 0},
		{layer: "handler", start: at(20), end: at(60), parent: 1},
		// Two overlapping children of the handler cover 30..55 once.
		{layer: "registry", start: at(30), end: at(50), parent: 2},
		{layer: "registry", start: at(40), end: at(55), parent: 2},
		// A child sticking out of its parent is clipped to 50..55.
		{layer: "model", start: at(50), end: at(70), parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client":   20 * time.Millisecond,
		"wire":     40 * time.Millisecond,
		"handler":  15 * time.Millisecond,
		"registry": 30 * time.Millisecond, // 20 + (15 - 5 model)
		"model":    5 * time.Millisecond,
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}

	a := newAccounting("client")
	a.add([]span{
		{layer: "client", start: at(0), end: at(100), parent: -1},
		{layer: "serve", start: at(0), end: at(60), parent: 0},
		{layer: "core", start: at(10), end: at(50), parent: 1},
	})
	a.add([]span{
		{layer: "client", start: at(0), end: at(100), parent: -1},
		{layer: "serve", start: at(0), end: at(100), parent: 0},
	})
	if c := a.coverage(); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8 (40 ms of 200 unattributed)", c)
	}
	sh := a.shares()
	if math.Abs(sh["core"]-0.2) > 1e-12 || math.Abs(sh["serve"]-0.6) > 1e-12 || math.Abs(sh["client"]-0.2) > 1e-12 {
		t.Errorf("shares = %v", sh)
	}
}

// probeRates runs the goodput search against a server that passes every
// rate up to capacity and returns the rates probed.
func probeRates(planned int, capacity float64) []float64 {
	var rates []float64
	lo, hi := 0.0, inf
	for k := 0; ; k++ {
		rate, ok := nextProbe(k, planned, lo, hi)
		if !ok {
			return rates
		}
		rates = append(rates, rate)
		if rate <= capacity {
			lo = rate
		} else {
			hi = rate
		}
	}
}

func TestGoodputSearch(t *testing.T) {
	// Bracketed from either side, then bisected, within the planned
	// probes.
	if got := probeRates(4, 7000); !reflect.DeepEqual(got, []float64{6000, 12000, math.Sqrt(6000 * 12000), math.Sqrt(6000 * math.Sqrt(6000*12000))}) {
		t.Errorf("capacity 7000: probes %v", got)
	}
	if got := probeRates(4, 5000); !reflect.DeepEqual(got, []float64{6000, 3000, math.Sqrt(3000 * 6000), math.Sqrt(math.Sqrt(3000*6000) * 6000)}) {
		t.Errorf("capacity 5000: probes %v", got)
	}
	// A slow server extends the search downward until a rate passes.
	if got := probeRates(2, 400); !reflect.DeepEqual(got, []float64{6000, 3000, 1500, 750, 375}) {
		t.Errorf("capacity 400: probes %v", got)
	}
	// Nothing passes: the search stops at the floor with no goodput.
	if got := probeRates(2, 10); len(got) != 7 || got[6] < goodputFloor || got[6]/goodputStep >= goodputFloor {
		t.Errorf("capacity 10: probes %v", got)
	}
	// Everything passes: the search stops at the ceiling.
	if got := probeRates(8, inf); got[len(got)-1] != goodputCeiling || len(got) != 4 {
		t.Errorf("unbounded capacity: probes %v", got)
	}
}
