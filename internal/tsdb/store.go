// Package tsdb is a bounded in-process time-series store: the history
// substrate behind /query, /fleet/query, windowed alert rules and gridctl
// plot. Every series owns a fixed-capacity ring of raw scrape points; raw
// points aged out of the ring are not discarded but folded, K at a time,
// into a coarser second-tier ring of aggregates, so recent history is
// dense and older history degrades gracefully instead of vanishing.
//
// The store never reads the clock: every append carries an injected
// microsecond timestamp (the scraper's tick, the hub's arrival stamp, a
// test's fake clock). That keeps the whole query surface a pure function
// of its inputs — the same determinism contract the journal replay paths
// obey — and is enforced by the gridlint walltime analyzer.
//
// Counters are stored as sampled cumulative values; rate()/increase()
// detect resets (value drops) pairwise at query time, so a process
// restart yields a small positive step, never a negative rate.
package tsdb

import (
	"sort"
	"sync"

	"loadbalance/internal/ring"
	"loadbalance/internal/trace"
)

// Sample is one named value scraped at a shared timestamp.
type Sample struct {
	Name  string
	Value float64
}

// Point is one query-result sample.
type Point struct {
	TsUs  int64   `json:"tsUs"`
	Value float64 `json:"value"`
}

// agg is the internal point shape. Raw scrape points are aggregates of
// count 1; tier-2 points summarize DownsampleFactor evicted raw points.
// last carries the newest raw value in the window (the counter surface),
// min/max/sum/count carry the gauge surface for avg/max_over_time.
type agg struct {
	tsUs                 int64
	last, min, max, sumV float64
	count                int64
}

func rawPoint(tsUs int64, v float64) agg {
	return agg{tsUs: tsUs, last: v, min: v, max: v, sumV: v, count: 1}
}

// series is one named ring pair plus the fold accumulator bridging them.
type series struct {
	raw    *ring.Buffer[agg] // raw points
	ds     *ring.Buffer[agg] // tier 2: downsampled aggregates (nil until the first one)
	acc    agg               // partial tier-2 aggregate being accumulated
	accN   int               // raw evictions folded into acc so far
	lastTs int64
}

// Config bounds a Store. Zero fields take defaults.
type Config struct {
	// RawCapacity is the per-series raw ring size (default 1024 points).
	RawCapacity int
	// DownsampleCapacity is the per-series tier-2 ring size (default 512).
	DownsampleCapacity int
	// DownsampleFactor is how many evicted raw points fold into one tier-2
	// aggregate (default 8).
	DownsampleFactor int
	// MaxSeries caps distinct series names; appends beyond it are dropped
	// and counted (default 4096).
	MaxSeries int
}

func (c Config) withDefaults() Config {
	if c.RawCapacity <= 0 {
		c.RawCapacity = 1024
	}
	if c.DownsampleCapacity <= 0 {
		c.DownsampleCapacity = 512
	}
	if c.DownsampleFactor <= 0 {
		c.DownsampleFactor = 8
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 4096
	}
	return c
}

// Store holds bounded history for many series. Appends come from one
// scraper (or the hub's ingest path); queries from HTTP handlers and the
// alert engine, hence the lock.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	series  map[string]*series
	names   []string // insertion order; sorted on demand
	evicted uint64   // raw-ring evictions (points folded into tier 2)
	dropped uint64   // appends rejected (series cap or out-of-order)
}

// New builds a store with cfg (zero fields defaulted).
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*series)}
}

// Append records one sample for name at the injected timestamp tsUs.
// Samples must arrive in timestamp order per series; stale or duplicate
// timestamps are dropped (and counted) to keep the rings sorted.
func (st *Store) Append(name string, tsUs int64, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appendLocked(name, tsUs, v)
}

// AppendBatch records samples sharing one injected timestamp, in sorted
// name order so store contents are independent of caller map iteration.
func (st *Store) AppendBatch(tsUs int64, samples []Sample) {
	sorted := append([]Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range sorted {
		st.appendLocked(s.Name, tsUs, s.Value)
	}
}

func (st *Store) appendLocked(name string, tsUs int64, v float64) {
	s := st.series[name]
	if s == nil {
		if len(st.series) >= st.cfg.MaxSeries {
			st.dropped++
			return
		}
		s = &series{raw: ring.New[agg](st.cfg.RawCapacity)}
		st.series[name] = s
		st.names = append(st.names, name)
	}
	if s.raw.Len() > 0 && tsUs <= s.lastTs {
		st.dropped++
		return
	}
	s.lastTs = tsUs
	if old, wrapped := s.raw.Push(rawPoint(tsUs, v)); wrapped {
		st.evicted++
		st.foldLocked(s, old)
	}
}

// foldLocked merges one evicted raw point into the series' tier-2
// accumulator, pushing a finished aggregate every DownsampleFactor folds.
func (st *Store) foldLocked(s *series, p agg) {
	if s.accN == 0 {
		s.acc = p
	} else {
		s.acc.tsUs = p.tsUs // aggregate is stamped at its window end
		s.acc.last = p.last
		if p.min < s.acc.min {
			s.acc.min = p.min
		}
		if p.max > s.acc.max {
			s.acc.max = p.max
		}
		s.acc.sumV += p.sumV
		s.acc.count += p.count
	}
	s.accN++
	if s.accN < st.cfg.DownsampleFactor {
		return
	}
	if s.ds == nil {
		s.ds = ring.New[agg](st.cfg.DownsampleCapacity)
	}
	s.ds.Push(s.acc)
	s.accN = 0
}

// window copies every point of name in (fromUs, toUs], oldest first:
// tier-2 aggregates, then the partial accumulator, then raw points.
func (st *Store) window(name string, fromUs, toUs int64) []agg {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.series[name]
	if s == nil {
		return nil
	}
	out := make([]agg, 0, s.ds.Len()+s.raw.Len()+1)
	take := func(p agg) {
		if p.tsUs > fromUs && p.tsUs <= toUs {
			out = append(out, p)
		}
	}
	for i := 0; i < s.ds.Len(); i++ {
		take(s.ds.At(i))
	}
	if s.accN > 0 {
		take(s.acc)
	}
	for i := 0; i < s.raw.Len(); i++ {
		take(s.raw.At(i))
	}
	return out
}

// SeriesNames returns every stored series name, sorted.
func (st *Store) SeriesNames() []string {
	st.mu.Lock()
	out := append([]string(nil), st.names...)
	st.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats is the store's self-accounting, exported as tsdb_* gauges.
type Stats struct {
	Series    int
	Points    int
	Evictions uint64
	Dropped   uint64
}

// Stats returns current store accounting.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.series {
		n += s.raw.Len() + s.ds.Len()
	}
	return Stats{Series: len(st.series), Points: n, Evictions: st.evicted, Dropped: st.dropped}
}

// Samples appends the store's self-accounting as the tsdb_* series.
func (st *Store) Samples(dst []trace.Sample) []trace.Sample {
	s := st.Stats()
	return append(dst,
		trace.Gauge("tsdb_series", "", float64(s.Series)),
		trace.Gauge("tsdb_points", "", float64(s.Points)),
		trace.Counter("tsdb_evictions", "", s.Evictions),
		trace.Counter("tsdb_dropped_samples", "", s.Dropped))
}
