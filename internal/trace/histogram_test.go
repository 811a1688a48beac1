package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for shift := 0; shift < 40; shift++ {
		for _, off := range []uint64{0, 1} {
			ns := uint64(1)<<shift + off
			i := bucketIndex(ns)
			if i < 0 || i >= nBuckets {
				t.Fatalf("bucketIndex(%d) = %d out of range", ns, i)
			}
			if i < prev {
				t.Fatalf("bucketIndex not monotone at %d: %d < %d", ns, i, prev)
			}
			prev = i
		}
	}
	if bucketIndex(0) != 0 {
		t.Fatal("0 should land in the underflow bucket")
	}
	if bucketIndex(math.MaxUint64) != nBuckets-1 {
		t.Fatal("huge value should land in the overflow bucket")
	}
}

func TestBucketBoundsContainValues(t *testing.T) {
	// Every value must fall strictly below its bucket's upper bound and at
	// or above the previous bucket's upper bound.
	for _, ns := range []uint64{1500, 4096, 5000, 1 << 20, 3 << 20, 1e9, 30e9} {
		i := bucketIndex(ns)
		ub := bucketUpperNs(i)
		if ub != 0 && ns >= ub {
			t.Fatalf("ns %d >= upper bound %d of bucket %d", ns, ub, i)
		}
		if i > 0 {
			if lb := bucketUpperNs(i - 1); ns < lb {
				t.Fatalf("ns %d < lower bound %d of bucket %d", ns, lb, i)
			}
		}
	}
}

func TestQuantileAccuracy(t *testing.T) {
	h := &Histogram{family: "x_seconds"}
	// 1000 observations uniform in [1ms, 2ms): p50 should sit near 1.5ms
	// within the 12.5% bucket resolution.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.0012 || p50 > 0.0018 {
		t.Fatalf("p50 = %g s, want ~0.0015", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %g < p50 %g", p99, p50)
	}
	if h.Quantile(0.99) > 0.0025 {
		t.Fatalf("p99 = %g s, too high", p99)
	}
}

func TestEmptyHistogramQuantileZero(t *testing.T) {
	h := &Histogram{family: "x_seconds"}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if q := nilH.Quantile(0.5); q != 0 {
		t.Fatalf("nil histogram quantile = %g", q)
	}
	empty := &Histogram{family: "x_seconds"}
	if empty.Quantile(0) != 0 || empty.Quantile(1) != 0 {
		t.Fatal("empty histogram extreme quantiles nonzero")
	}

	// All mass in a single bucket: every quantile interpolates within that
	// bucket's bounds, q=0 pins the lower bound, q=1 the upper, and the
	// function stays monotone in q.
	h := &Histogram{family: "x_seconds"}
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	idx := bucketIndex(uint64(5 * time.Millisecond / time.Nanosecond))
	lb := float64(bucketUpperNs(idx-1)) / 1e9
	ub := float64(bucketUpperNs(idx)) / 1e9
	if q0 := h.Quantile(0); q0 != lb {
		t.Fatalf("q=0 gives %g, want bucket lower bound %g", q0, lb)
	}
	if q1 := h.Quantile(1); q1 != ub {
		t.Fatalf("q=1 gives %g, want bucket upper bound %g", q1, ub)
	}
	prev := 0.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := h.Quantile(q)
		if v < lb || v > ub {
			t.Fatalf("Quantile(%g) = %g outside bucket [%g, %g]", q, v, lb, ub)
		}
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestRegistrySnapshots(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("a_seconds")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	r.HistogramL("b_seconds", "exp", "e1") // registered but never observed
	r.RegisterGauge("zz_gauge", func() float64 { return 7 })

	samples := r.Gather()
	// Collectors come first, then histograms in family order.
	if samples[0] != Gauge("zz_gauge", "", 7) {
		t.Fatalf("first sample = %+v, want the registered gauge", samples[0])
	}
	want := map[string]float64{
		"a_seconds_count":                      2,
		"a_seconds_sum":                        0.003,
		`a_seconds_bucket{le="+Inf"}`:          2,
		`b_seconds_bucket{exp="e1",le="+Inf"}`: 0,
		`b_seconds_count{exp="e1"}`:            0,
	}
	for series, v := range want {
		if got, ok := Value(samples, series); !ok || got != v {
			t.Fatalf("%s = %g (found %v), want %g", series, got, ok, v)
		}
	}
	var aBuckets, bBuckets int
	for _, s := range samples {
		switch {
		case s.Family == "a_seconds_bucket":
			aBuckets++
		case s.Family == "b_seconds_bucket":
			bBuckets++
		}
		if strings.HasPrefix(s.Family, "a_seconds") && s.Family != "a_seconds_p50" && s.Family != "a_seconds_p95" && s.Family != "a_seconds_p99" && s.Kind != KindHistogram {
			t.Fatalf("%s has kind %v, want histogram", s.Family, s.Kind)
		}
	}
	// Occupied buckets plus +Inf; the empty histogram keeps only +Inf and
	// gets no quantile gauges.
	if aBuckets < 2 || bBuckets != 1 {
		t.Fatalf("bucket series: a %d, b %d", aBuckets, bBuckets)
	}
	p50, _ := Value(samples, "a_seconds_p50")
	p99, ok := Value(samples, "a_seconds_p99")
	if !ok || p50 <= 0 || p99 < p50 {
		t.Fatalf("a quantiles = p50 %g p99 %g (found %v)", p50, p99, ok)
	}
	if _, ok := Value(samples, `b_seconds_p50{exp="e1"}`); ok {
		t.Fatal("unobserved histogram served a quantile gauge")
	}
}

func TestRegistryExpositionFormat(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("grid_tick_seconds")
	h.Observe(5 * time.Millisecond)
	h.Observe(7 * time.Millisecond)
	le := r.HistogramL("experiment_duration_seconds", "exp", "e14")
	le.Observe(time.Second)
	r.Register(func(dst []Sample) []Sample {
		return append(dst,
			Counter("frames_total", Label("transport", "member"), 1234567),
			Counter("frames_total", Label("transport", "root"), 0),
			Gauge("load_kwh", "", 13.5),
			Sample{Family: "relayed", Labels: `proc="w"`, Value: 2})
	})

	var b strings.Builder
	WriteMetrics(&b, r.Gather())
	out := b.String()

	// Collected families open the page, one # TYPE line each, integers in
	// full; untyped samples get no # TYPE line.
	head := "# TYPE frames_total counter\n" +
		"frames_total{transport=\"member\"} 1234567\n" +
		"frames_total{transport=\"root\"} 0\n" +
		"# TYPE load_kwh gauge\nload_kwh 13.5\n" +
		"relayed{proc=\"w\"} 2\n" +
		"# TYPE experiment_duration_seconds histogram\n"
	if !strings.HasPrefix(out, head) {
		t.Fatalf("page head:\n%s\nwant prefix:\n%s", out, head)
	}
	for _, want := range []string{
		"# TYPE grid_tick_seconds histogram\n",
		"grid_tick_seconds_count 2\n",
		`grid_tick_seconds_bucket{le="+Inf"} 2`,
		`experiment_duration_seconds_bucket{exp="e14",le="+Inf"} 1`,
		`experiment_duration_seconds_count{exp="e14"} 1`,
		"# TYPE grid_tick_seconds_p50 gauge\n",
		"# TYPE grid_tick_seconds_p99 gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE grid_tick_seconds histogram\n"); n != 1 {
		t.Fatalf("histogram family opened %d times:\n%s", n, out)
	}
	// _sum must be in seconds: 12ms total.
	if !strings.Contains(out, "grid_tick_seconds_sum 0.012") {
		t.Fatalf("sum not in seconds:\n%s", out)
	}
}

// TestScopeSharesHistogramsNotCollectors pins what a role registry is: the
// process-wide histograms plus that role's own collectors.
func TestScopeSharesHistogramsNotCollectors(t *testing.T) {
	root := NewRegistry()
	a, b := root.Scope(), root.Scope()
	a.RegisterGauge("only_a", func() float64 { return 1 })
	root.Histogram("shared_seconds").Observe(time.Millisecond)
	if a.Lookup("shared_seconds") == nil || b.Histogram("shared_seconds").Count() != 1 {
		t.Fatal("scopes do not share the root's histograms")
	}
	if _, ok := Value(a.Gather(), "only_a"); !ok {
		t.Fatal("scope lost its own collector")
	}
	if _, ok := Value(b.Gather(), "only_a"); ok {
		t.Fatal("a collector leaked into a sibling scope")
	}
	if _, ok := Value(b.Gather(), "shared_seconds_count"); !ok {
		t.Fatal("sibling scope does not gather the shared histogram")
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.HistogramL("f_seconds", "exp", "e1")
	b := r.HistogramL("f_seconds", "exp", "e1")
	c := r.HistogramL("f_seconds", "exp", "e2")
	if a != b {
		t.Fatal("same family+label returned distinct histograms")
	}
	if a == c {
		t.Fatal("different labels shared a histogram")
	}
}

// TestInstrumentAllocs pins what an instrumented operation costs the heap:
// nothing, whether the tracer is on or off. The span case is the whole path
// an instrumented handler takes — a labelled root, a labelled child, both
// ended. The counts are exact — the package runs no goroutine of its own.
func TestInstrumentAllocs(t *testing.T) {
	h := &Histogram{family: "alloc_seconds"}
	span := func() {
		sp := Root("alloc.op")
		sp.SetSession("s-1")
		ch := Child(sp.Context(), "alloc.child")
		ch.SetAgent("c000001")
		ch.End()
		sp.End()
	}
	i := 0
	for _, c := range []struct {
		name   string
		traced bool
		f      func()
	}{
		{"Root, SetSession, Child, SetAgent, End, End, tracer enabled", true, span},
		{"Root, SetSession, Child, SetAgent, End, End, tracer disabled", false, span},
		{"Histogram.Observe", false, func() { i++; h.Observe(time.Duration(1000 + i%1000)) }},
	} {
		if c.traced {
			Enable("alloc", 1024)
		}
		got := testing.AllocsPerRun(1000, c.f)
		Disable()
		if got != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, got)
		}
	}
}
