package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 if any is <= 0).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler polls the Go heap in use (live and not yet swept objects)
// and keeps the high-water mark of the current window. Windows are cut by
// the caller (one per TPC-H pass or per serving interval), so the reported
// peak is a median of per-window peaks rather than one GC-timing-sensitive
// maximum.
type heapSampler struct {
	mu    sync.Mutex
	peak  uint64
	every time.Duration // when > 0, the sampler cuts windows itself
	peaks []float64     // MB, windows cut by the sampler
	stop  chan struct{}
	done  chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler starts the polling goroutine; Stop ends it and waits.
// With every > 0 it cuts a window itself at that interval (see Peaks).
func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{every: every, stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = readHeap()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		cut := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				v := readHeap()
				h.mu.Lock()
				h.peak = max(h.peak, v)
				h.mu.Unlock()
				if h.every > 0 && now.Sub(cut) >= h.every {
					p := h.Cut()
					h.mu.Lock()
					h.peaks = append(h.peaks, p)
					h.mu.Unlock()
					cut = now
				}
			}
		}
	}()
	return h
}

// Peaks returns the windows the sampler cut itself.
func (h *heapSampler) Peaks() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.peaks...)
}

// Cut returns the current window's peak in MB and starts a new window.
func (h *heapSampler) Cut() float64 {
	v := readHeap()
	h.mu.Lock()
	p := max(h.peak, v)
	h.peak = v
	h.mu.Unlock()
	return float64(p) / (1 << 20)
}

func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}
