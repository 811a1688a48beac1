package trace

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// A process publishes its numbers in one place: each package that owns
// counters exposes a Collector over the Stats()/Status() snapshot it already
// has, the role registers its collectors on a Registry in page order, and
// every reader — /metrics, the flight recorder, the tsdb scraper, the obs
// emitter, the alert engine — reads Registry.Gather. WriteMetrics is the
// only function that renders exposition text.

// Kind is a sample's exposition type.
type Kind uint8

const (
	KindUntyped   Kind = iota // relayed series whose type lives on the origin page
	KindCounter               // cumulative, monotone
	KindGauge                 // point-in-time
	KindHistogram             // a histogram's _bucket/_sum/_count series
)

var kindNames = [...]string{"untyped", "counter", "gauge", "histogram"}

func (k Kind) String() string { return kindNames[k] }

// Sample is one series' current value. Labels holds the rendered label
// pairs without braces (`shard="0"`), "" if none; build them with Label.
type Sample struct {
	Family string
	Labels string
	Kind   Kind
	Value  float64
}

// Counter builds a counter sample.
func Counter(family, labels string, v uint64) Sample {
	return Sample{family, labels, KindCounter, float64(v)}
}

// Gauge builds a gauge sample.
func Gauge(family, labels string, v float64) Sample {
	return Sample{family, labels, KindGauge, v}
}

// Bool renders a boolean as a 0/1 gauge value.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// AgeSeconds is the value of an age gauge: seconds since t, or -1 while the
// event t stamps has not happened yet.
func AgeSeconds(t time.Time) float64 {
	if t.IsZero() {
		return -1
	}
	return time.Since(t).Seconds()
}

// Label renders one label pair.
func Label(key, val string) string { return key + "=" + strconv.Quote(val) }

// joinLabels concatenates two rendered label lists.
func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// Series returns the full series name, family{labels} — the key the tsdb
// store and the obs wire identify a sample by.
func (s Sample) Series() string {
	if s.Labels == "" {
		return s.Family
	}
	return s.Family + "{" + s.Labels + "}"
}

// ParseSeries splits a full series name back into a sample's family and
// labels.
func ParseSeries(series string) (family, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// Value returns the sample named by a full series string.
func Value(samples []Sample, series string) (float64, bool) {
	family, labels := ParseSeries(series)
	for _, s := range samples {
		if s.Family == family && s.Labels == labels {
			return s.Value, true
		}
	}
	return 0, false
}

// Collector appends a component's current samples to dst. One family's
// samples must be contiguous: the page opens a family where it first appears.
type Collector func(dst []Sample) []Sample

// Registry is the set of histograms and collectors one process role
// publishes.
type Registry struct {
	*histograms

	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{histograms: &histograms{hs: make(map[string]*Histogram)}}
}

// Scope returns a registry over the same histograms with its own collectors:
// code deep in the negotiation path observes into the process-wide
// histograms, while each daemon role assembled in the process (tests run
// several) publishes its own page.
func (r *Registry) Scope() *Registry { return &Registry{histograms: r.histograms} }

// Register adds a collector; pages render collectors in registration order,
// ahead of the histograms.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// RegisterGauge publishes one named gauge — a one-sample collector.
func (r *Registry) RegisterGauge(family string, fn func() float64) {
	r.Register(func(dst []Sample) []Sample { return append(dst, Gauge(family, "", fn())) })
}

// Gather, the one read path, returns the registry's current samples: every
// collector's, then every histogram's (sorted by family and labels), then
// the p50/p95/p99 gauges of the histograms that have observations.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	collectors := r.collectors[:len(r.collectors):len(r.collectors)]
	r.mu.Unlock()
	out := make([]Sample, 0, 128)
	for _, c := range collectors {
		out = c(out)
	}
	hs := r.sorted()
	ps := make([][len(percentiles)]float64, len(hs))
	observed := make([]uint64, len(hs))
	for i, h := range hs {
		out, ps[i], observed[i] = h.appendSamples(out)
	}
	for pi, p := range percentiles {
		for i, h := range hs {
			if observed[i] > 0 {
				out = append(out, Gauge(h.family+p.suffix, h.labels, ps[i][pi]))
			}
		}
	}
	return out
}

// WriteMetrics renders samples in Prometheus text exposition format, opening
// each typed family with its # TYPE line. Integral values print as integers,
// everything else in the shortest form that round-trips. The page goes out
// in one Write, whose error is returned.
func WriteMetrics(w io.Writer, samples []Sample) error {
	buf := make([]byte, 0, 64*len(samples))
	typed := ""
	for _, s := range samples {
		family := s.Family
		if s.Kind == KindHistogram {
			family = family[:strings.LastIndexByte(family, '_')]
		}
		if s.Kind != KindUntyped && family != typed {
			buf = append(buf, "# TYPE "...)
			buf = append(buf, family...)
			buf = append(buf, ' ')
			buf = append(buf, s.Kind.String()...)
			buf = append(buf, '\n')
			typed = family
		}
		buf = append(buf, s.Family...)
		if s.Labels != "" {
			buf = append(buf, '{')
			buf = append(buf, s.Labels...)
			buf = append(buf, '}')
		}
		buf = append(buf, ' ')
		if v := s.Value; v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			buf = strconv.AppendInt(buf, int64(v), 10)
		} else {
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// MetricsHandler serves what gather returns as an exposition page.
func MetricsHandler(gather func() []Sample) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WriteMetrics(w, gather()) // a scraper that hung up mid-page has nothing to be told
	}
}

// AppendJSONString appends s to dst as a JSON string literal. It is the one
// string writer of the hand-rolled JSON documents (/logs and the log file,
// /alerts, /query, flight-recorder bundles, streamed log fields):
// strconv.AppendQuote writes Go syntax there (\x1b, \a, \xff), which no JSON
// parser accepts. A quote and a backslash are escaped, a control byte becomes
// \u00XX and a byte that is not valid UTF-8 becomes \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r < ' ':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[r>>4], hexDigits[r&0xf])
		case r == utf8.RuneError: // what ranging over an invalid byte yields
			dst = append(dst, `\ufffd`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}
