package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/vclock"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail read off fewer samples is one unlucky event, not
// a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples, refusing when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of n=%d", q*100, minBeyond, max(beyond, 0), n)
	}
	return sorted[rank-1], nil
}

// tailPercentile returns the q-quantile when the sample count allows
// it, and otherwise the highest percentile that does, reporting which
// quantile it returned (0 when there are too few samples for any).
func tailPercentile(sorted []float64, q float64) (float64, float64) {
	if v, err := percentile(sorted, q); err == nil {
		return v, q
	}
	n := len(sorted) - minBeyond
	if n < 1 {
		return 0, 0
	}
	return sorted[n-1], float64(n) / float64(len(sorted))
}

// median is the interpolated middle of xs (any count ≥ 1), for the
// medians of a run's few repetitions; it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

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

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (bytes marked reachable by the
// latest GC cycle) while a phase runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := vclock.WallTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe(readLiveHeap())
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// finish stops sampling and returns the peak. A final forced GC marks
// the heap as it stands at the end of the phase, so the state a run
// holds at its end is counted even if no GC cycle ran after it grew.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.observe(readLiveHeap())
	return h.peak.Load()
}

// mix is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct keys.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
