package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// refuses when fewer than minBeyond samples lie beyond it, so a tail
// figure is never read off a handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
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

// mean returns the arithmetic mean of xs; 0 for no samples.
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tail is percentile, except that with relax (toy runs in tests) too few
// samples fall back to the maximum instead of failing.
func tail(xs []float64, p float64, relax bool) (float64, error) {
	v, err := percentile(xs, p)
	if err != nil && relax && len(xs) > 0 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)-1], nil
	}
	return v, err
}

// restartPeakRSS restarts the kernel's count of this process's peak
// resident set size at the current size. The error is dropped: where the
// kernel offers no restart, the count goes on from process start.
func restartPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is this process's peak resident set size since start or the
// last restartPeakRSS, in MiB.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is the length of the windows a timed phase is cut into.
const window = time.Second

// rssSampler records the peak resident set size of each window of a
// phase.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

// sampleRSS first returns the memory the collector has freed to the OS,
// so the peaks are the phase's and not set-up's, then reads and restarts
// the peak count once a window until stopped.
func sampleRSS() *rssSampler {
	debug.FreeOSMemory()
	restartPeakRSS()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				restartPeakRSS()
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median of its window peaks,
// or the peak so far when the phase was shorter than a window.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return peakRSSMB()
	}
	return median(s.peaks)
}

// windows is how many whole windows fit in span; at least 1.
func windows(span time.Duration) int { return max(1, int(span/window)) }

// windowRates returns, for each window of span, how many events
// completed in it per second. Events past the last whole window count
// toward it.
func windowRates(at []time.Duration, span time.Duration) []float64 {
	n := windows(span)
	counts := make([]float64, n)
	for _, a := range at {
		counts[min(int(a/window), n-1)]++
	}
	width := span.Seconds() / float64(n)
	for i := range counts {
		counts[i] /= width
	}
	return counts
}

// windowMedians returns the median of the values completed in each
// window of span; windows with no values are left out.
func windowMedians(at []time.Duration, vals []float64, span time.Duration) []float64 {
	n := windows(span)
	byWindow := make([][]float64, n)
	for i, a := range at {
		w := min(int(a/window), n-1)
		byWindow[w] = append(byWindow[w], vals[i])
	}
	var out []float64
	for _, vs := range byWindow {
		if len(vs) > 0 {
			out = append(out, median(vs))
		}
	}
	return out
}
