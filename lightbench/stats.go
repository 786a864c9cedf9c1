package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailQuantile is the fixed percentile reported as latency_tail_ms and as
// loadgen.late_ms. Every latency phase is sized so that at least 10
// samples lie beyond it.
const tailQuantile = 0.90

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. Failed operations enter as +Inf, so they never drop out
// of a percentile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rateBlock is the least span one throughput sample covers. The median
// over blocks resists a slow stretch, such as a burst of CPU time taken
// by other tenants of a shared host.
const rateBlock = 500 * time.Millisecond

// blockRate is the frames_per_s of a phase: the median, over consecutive
// blocks of at least rateBlock, of the rate at which correct frames
// completed. done holds one completion time per correct frame; a failed
// frame has none, so it lowers its block's rate. A phase shorter than
// one block is one block. It sorts done.
func blockRate(done []time.Time) float64 {
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	for a, j := 0, 1; j < len(done); j++ {
		if span := done[j].Sub(done[a]); span >= rateBlock {
			rates = append(rates, float64(j-a)/span.Seconds())
			a = j
		}
	}
	if len(rates) == 0 && len(done) > 1 {
		if span := done[len(done)-1].Sub(done[0]); span > 0 {
			rates = append(rates, float64(len(done)-1)/span.Seconds())
		}
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}

// latencyMetrics fills latency_p50_ms and latency_tail_ms (the
// tailQuantile) from per-op latencies in milliseconds. A failed op (+Inf)
// that reaches a reported percentile reads as failedLatencyMS, which JSON
// can carry.
func latencyMetrics(m map[string]float64, lat []float64) {
	const failedLatencyMS = 1e6
	if beyond := float64(len(lat)) * (1 - tailQuantile); beyond < 10 {
		fmt.Fprintf(os.Stderr, "lightbench: only %.1f samples beyond p%g (want >= 10)\n", beyond, tailQuantile*100)
	}
	for name, q := range map[string]float64{"latency_p50_ms": 0.5, "latency_tail_ms": tailQuantile} {
		v := quantile(lat, q)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = failedLatencyMS
		}
		m[name] = v
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digestFloats hashes float64 samples by their exact bits, so equal
// digests mean bit-identical outputs.
func digestFloats(xs []float64) [32]byte {
	h := sha256.New()
	var buf [8 * 512]byte
	for len(xs) > 0 {
		n := min(len(xs), 512)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		xs = xs[n:]
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// peakRSSMB reads VmHWM, the peak resident set, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// memCounter is the allocation and GC part of runtime.MemStats.
type memCounter struct{ mallocs, totalAlloc, numGC uint64 }

func (c *memCounter) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.totalAlloc, c.numGC = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
}
