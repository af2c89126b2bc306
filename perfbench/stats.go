package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// latencies collects per-operation durations, with their completion
// times, from any goroutine.
type latencies struct {
	mu sync.Mutex
	ms []float64
	at []time.Time
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.at = append(l.at, time.Now())
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// within returns the durations of operations completed in [from, to).
func (l *latencies) within(from, to time.Time) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for i, t := range l.at {
		if !t.Before(from) && t.Before(to) {
			out = append(out, l.ms[i])
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailQuantile is p95, or p90 for samples too small to leave ten beyond
// p95, so a tail is never read off one or two outliers.  p99 is reported
// beside it but not gated: on a shared 2-vCPU host it swings with the
// host's load by about a tenth of its median from run to run.
func tailQuantile(n int) float64 {
	if n >= 200 {
		return 0.95
	}
	return 0.90
}

// runtimeCounters reads allocation and GC totals from runtime/metrics,
// which does not stop the world.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.allocObjects - o.allocObjects, c.gcCycles - o.gcCycles}
}

// heapSampler samples the live heap, as marked by each GC cycle, every few
// milliseconds while it runs.  The live heap, unlike heap objects including
// garbage not yet collected, does not depend on where a sample falls in the
// GC cycle.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in megabytes
// (10^6 bytes), taken as the 99th percentile of the samples: a small heap
// under request load peaks when a GC cycle happens to mark several requests
// in flight, and the maximum would follow those rare cycles.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99) / 1e6
}
