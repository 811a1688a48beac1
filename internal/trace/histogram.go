package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Log-linear bucket scheme: each power-of-two range of nanoseconds is
// split into 4 linear sub-buckets (the top two mantissa bits), giving a
// worst-case relative error of 12.5% per bucket. The tracked range is
// [2^minShift, 2^(maxShift+1)) ns — 1.024 µs to ~137 s — with one
// underflow bucket below and one overflow (+Inf) bucket above.
const (
	minShift   = 10 // 2^10 ns ≈ 1 µs
	maxShift   = 36 // 2^36 ns ≈ 69 s
	subBuckets = 4
	nBuckets   = (maxShift-minShift+1)*subBuckets + 2 // + underflow + overflow
)

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(ns uint64) int {
	if ns < 1<<minShift {
		return 0
	}
	m := uint(bits.Len64(ns)) - 1 // 2^m <= ns < 2^(m+1)
	if m > maxShift {
		return nBuckets - 1
	}
	minor := int(ns>>(m-2)) & (subBuckets - 1)
	return 1 + int(m-minShift)*subBuckets + minor
}

// bucketUpperNs returns the exclusive upper bound of bucket i in ns, or 0
// for the overflow bucket (rendered as +Inf).
func bucketUpperNs(i int) uint64 {
	if i == 0 {
		return 1 << minShift
	}
	if i == nBuckets-1 {
		return 0
	}
	i--
	m := uint(i/subBuckets) + minShift
	minor := uint64(i % subBuckets)
	return 1<<m + (minor+1)<<(m-2)
}

// Histogram is a fixed-bucket log-linear latency histogram. Observe is
// lock-free: one bucket increment plus two running-total adds.
type Histogram struct {
	family string // metric family, e.g. "grid_tick_seconds"
	labels string // rendered label pairs without braces, e.g. `exp="e14"`

	counts [nBuckets]atomic.Uint64
	sumNs  atomic.Uint64
	count  atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	ns := uint64(d)
	h.counts[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// snapshot copies the bucket counts coherently enough for rendering
// (individual loads are atomic; cross-bucket skew of in-flight Observes
// is acceptable for monitoring output).
func (h *Histogram) snapshot() (counts [nBuckets]uint64, sumNs, n uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sumNs.Load(), h.count.Load()
}

// Quantile returns the q-quantile (0 < q < 1) in seconds, interpolated
// linearly within the winning bucket. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, _, n := h.snapshot()
	return quantile(&counts, n, q)
}

// quantile reads the q-quantile off one bucket snapshot.
func quantile(counts *[nBuckets]uint64, n uint64, q float64) float64 {
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		ub := bucketUpperNs(i)
		if ub == 0 { // overflow bucket: report its lower bound
			return float64(uint64(2)<<maxShift) / 1e9
		}
		var lb uint64
		if i > 0 {
			lb = bucketUpperNs(i - 1)
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return (float64(lb) + frac*float64(ub-lb)) / 1e9
	}
	return float64(uint64(2)<<maxShift) / 1e9
}

// leLabels holds every bucket's rendered le="<seconds>" label pair, with
// enough precision to round-trip the bucket boundary.
var leLabels = func() (l [nBuckets]string) {
	for i := range l {
		ub := bucketUpperNs(i)
		if ub == 0 {
			l[i] = `le="+Inf"`
			continue
		}
		sec := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", float64(ub)/1e9), "0"), ".")
		l[i] = `le="` + sec + `"`
	}
	return l
}()

// percentiles are the quantile gauges served beside every histogram.
var percentiles = [...]struct {
	suffix string
	q      float64
}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}

// appendSamples appends one histogram instance as its exposition series:
// the cumulative _bucket of every occupied bucket (cumulative values stay
// correct with the empty ones left out) and of +Inf, then _sum in seconds
// and _count. It also returns the instance's percentiles and observation
// count, read off the same snapshot.
func (h *Histogram) appendSamples(dst []Sample) ([]Sample, [len(percentiles)]float64, uint64) {
	counts, sumNs, n := h.snapshot()
	bucket := h.family + "_bucket"
	var cum uint64
	for i, c := range counts[:nBuckets-1] { // overflow counts land in +Inf
		cum += c
		if c != 0 {
			dst = append(dst, Sample{bucket, joinLabels(h.labels, leLabels[i]), KindHistogram, float64(cum)})
		}
	}
	dst = append(dst,
		Sample{bucket, joinLabels(h.labels, leLabels[nBuckets-1]), KindHistogram, float64(n)},
		Sample{h.family + "_sum", h.labels, KindHistogram, float64(sumNs) / 1e9},
		Sample{h.family + "_count", h.labels, KindHistogram, float64(n)})
	var ps [len(percentiles)]float64
	for i, p := range percentiles {
		ps[i] = quantile(&counts, n, p.q)
	}
	return dst, ps, n
}

// histograms is a registry's table of named histograms, shared by every
// Scope of it.
type histograms struct {
	mu   sync.Mutex
	hs   map[string]*Histogram // keyed family + "\xff" + labels
	keys []string              // sorted: the order the page renders them in
}

// Histogram returns the histogram for family (creating it on first use).
func (t *histograms) Histogram(family string) *Histogram {
	return t.HistogramL(family, "", "")
}

// HistogramL returns the histogram for family with one label pair
// (creating it on first use). Family names follow Prometheus duration
// conventions and should end in "_seconds".
func (t *histograms) HistogramL(family, labelKey, labelVal string) *Histogram {
	labels := ""
	if labelKey != "" {
		labels = Label(labelKey, labelVal)
	}
	key := family + "\xff" + labels
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hs[key]; ok {
		return h
	}
	h := &Histogram{family: family, labels: labels}
	t.hs[key] = h
	i := sort.SearchStrings(t.keys, key)
	t.keys = append(t.keys, "")
	copy(t.keys[i+1:], t.keys[i:])
	t.keys[i] = key
	return h
}

// Lookup returns the unlabeled histogram for family, or nil if it has
// never been created — unlike Histogram it does not instantiate, so
// read-side callers (score sources) can probe without adding empty
// families to /metrics.
func (t *histograms) Lookup(family string) *Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hs[family+"\xff"]
}

// sorted copies the table in rendering order.
func (t *histograms) sorted() []*Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Histogram, len(t.keys))
	for i, k := range t.keys {
		out[i] = t.hs[k]
	}
	return out
}

// defaultRegistry backs the package-level helpers; gridd and the
// experiment runner share it so one /metrics endpoint sees everything.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(family string) *Histogram { return defaultRegistry.Histogram(family) }

// LookupHistogram returns the default registry's histogram for family
// without creating it; nil if it does not exist.
func LookupHistogram(family string) *Histogram { return defaultRegistry.Lookup(family) }

// GetHistogramL returns a labeled histogram from the default registry.
func GetHistogramL(family, labelKey, labelVal string) *Histogram {
	return defaultRegistry.HistogramL(family, labelKey, labelVal)
}
