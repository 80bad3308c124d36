package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one open-loop request as the generator saw it.
type opResult struct {
	pick int
	due  time.Time
	sent time.Time
	done time.Time
	// late is how long after it could have sent the request the
	// generator did send it: past the due time when the sender was
	// idle, past the moment it became free when the server held it up.
	// Only the generator is to blame for it.
	late time.Duration
	id   int64
	err  error
}

// latency is the request's time from when it was due to its answer,
// so a stall also charges the requests queued behind it. A failed
// request misses every limit.
func (r opResult) latency() float64 {
	if r.err != nil || r.done.IsZero() {
		return inf
	}
	return r.done.Sub(r.due).Seconds()
}

// sendFunc sends pool entry pick and returns the client request id.
type sendFunc func(ctx context.Context, pick int) (id int64, err error)

// runOpen sends a schedule open-loop from start with the given number
// of sender goroutines: each takes the next request, waits until it is
// due and sends it, so a slow server builds a backlog rather than
// slowing the schedule.
func runOpen(ctx context.Context, start time.Time, s openSchedule, senders int, send sendFunc) []opResult {
	out := make([]opResult, len(s.due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(out) || ctx.Err() != nil {
					return
				}
				r := &out[i]
				r.pick = s.pick[i]
				r.due = start.Add(s.due[i])
				sleepUntil(r.due)
				r.sent = time.Now()
				if free.After(r.due) {
					r.late = r.sent.Sub(free)
				} else {
					r.late = r.sent.Sub(r.due)
				}
				r.id, r.err = send(ctx, r.pick)
				r.done = time.Now()
				free = r.done
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed sends from every sender back to back until end, walking
// the pool (of poolSize) in order from offset, and returns every
// request; a request is due when it is sent.
func runClosed(ctx context.Context, end time.Time, senders, offset, poolSize int, send sendFunc) []opResult {
	per := make([][]opResult, senders)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				r := opResult{pick: (offset + int(next.Add(1)) - 1) % poolSize, sent: time.Now()}
				r.due = r.sent
				r.id, r.err = send(ctx, r.pick)
				r.done = time.Now()
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	var out []opResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// sleepUntil waits for t. The runtime rounds short sleeps up to a
// millisecond, so the last millisecond is waited out by yielding.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// latencies returns the latency of every result.
func latencies(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.latency()
	}
	return out
}

// lateness returns the generator's lateness of every result, in
// seconds.
func lateness(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.late.Seconds()
	}
	return out
}
