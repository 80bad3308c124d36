package main

import (
	"math"
	"testing"
)

func TestErrorRateGate(t *testing.T) {
	cases := []struct {
		name     string
		rep      report
		max      float64
		rate     float64
		exceeded bool
	}{
		{"gate off ignores errors", report{Issued: 10, Errors: 10}, 1, 0, false},
		{"clean run passes", report{Issued: 100}, 0.01, 0, false},
		{"rate at threshold passes", report{Issued: 100, Errors: 1}, 0.01, 0.01, false},
		{"rate above threshold fails", report{Issued: 100, Errors: 2}, 0.01, 0.02, true},
		{"zero issued with active gate fails", report{}, 0.5, 1, true},
		{"zero tolerance fails on any error", report{Issued: 1000, Errors: 1}, 0, 0.001, true},
		{"zero tolerance passes a clean run", report{Issued: 1000}, 0, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rate, exceeded := errorRate(c.rep, c.max)
			if math.Abs(rate-c.rate) > 1e-12 || exceeded != c.exceeded {
				t.Fatalf("errorRate(%+v, %v) = (%v, %v), want (%v, %v)",
					c.rep, c.max, rate, exceeded, c.rate, c.exceeded)
			}
		})
	}
}
