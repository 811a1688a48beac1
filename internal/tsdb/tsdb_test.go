package tsdb

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/trace"
)

const secUs = int64(time.Second / time.Microsecond)

// fill appends n points of series name at 1s spacing starting at t=1s,
// with values from vals cycled (or the index when vals is empty).
func fill(st *Store, name string, n int, vals ...float64) {
	for i := 0; i < n; i++ {
		v := float64(i)
		if len(vals) > 0 {
			v = vals[i%len(vals)]
		}
		st.Append(name, int64(i+1)*secUs, v)
	}
}

func TestStoreRetainsAllPointsUntilEviction(t *testing.T) {
	st := New(Config{RawCapacity: 8})
	fill(st, "g", 8)
	pts := st.window("g", 0, 100*secUs)
	if len(pts) != 8 {
		t.Fatalf("window returned %d points, want 8", len(pts))
	}
	for i, p := range pts {
		if p.tsUs != int64(i+1)*secUs || p.last != float64(i) {
			t.Fatalf("point %d = {%d %g}, want {%d %d}", i, p.tsUs, p.last, int64(i+1)*secUs, i)
		}
	}
	if s := st.Stats(); s.Series != 1 || s.Points != 8 || s.Evictions != 0 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDownsamplingFoldsEvictedPoints(t *testing.T) {
	// Raw ring of 4, folding every 2 evictions: 12 appends evict 8 raw
	// points into 4 tier-2 aggregates, so nothing is lost — the window
	// still spans the full history, just coarser at the old end.
	st := New(Config{RawCapacity: 4, DownsampleFactor: 2, DownsampleCapacity: 8})
	fill(st, "g", 12)
	if s := st.Stats(); s.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", s.Evictions)
	}
	pts := st.window("g", 0, 100*secUs)
	if len(pts) != 8 { // 4 aggregates + 4 raw
		t.Fatalf("window returned %d points, want 8", len(pts))
	}
	// First aggregate folds raw points at t=1s,2s (values 0,1): stamped at
	// its window end with the gauge surface intact.
	a := pts[0]
	if a.tsUs != 2*secUs || a.last != 1 || a.min != 0 || a.max != 1 || a.sumV != 1 || a.count != 2 {
		t.Fatalf("first aggregate = %+v", a)
	}
	// The raw tail is still dense.
	tail := pts[4:]
	for i, p := range tail {
		if p.tsUs != int64(i+9)*secUs || p.count != 1 {
			t.Fatalf("raw tail %d = %+v", i, p)
		}
	}
}

func TestAggregatesSurviveThroughAvgAndMax(t *testing.T) {
	st := New(Config{RawCapacity: 4, DownsampleFactor: 2, DownsampleCapacity: 8})
	fill(st, "g", 12)
	// avg over the full range must weight every original point equally:
	// mean of 0..11 = 5.5, even though 8 of them live in aggregates.
	if v, ok := st.Instant(Expr{Fn: "avg_over_time", Series: "g", WindowUs: 100 * secUs}, 100*secUs); !ok || v != 5.5 {
		t.Fatalf("avg_over_time = %g ok=%v, want 5.5 true", v, ok)
	}
	if v, ok := st.Instant(Expr{Fn: "max_over_time", Series: "g", WindowUs: 100 * secUs}, 100*secUs); !ok || v != 11 {
		t.Fatalf("max_over_time = %g ok=%v, want 11 true", v, ok)
	}
}

func TestOutOfOrderAndDuplicateAppendsDropped(t *testing.T) {
	st := New(Config{})
	st.Append("g", 10*secUs, 1)
	st.Append("g", 5*secUs, 2)  // stale
	st.Append("g", 10*secUs, 3) // duplicate
	st.Append("g", 11*secUs, 4)
	if s := st.Stats(); s.Dropped != 2 || s.Points != 2 {
		t.Fatalf("stats = %+v, want 2 dropped 2 points", s)
	}
	pts := st.window("g", 0, 100*secUs)
	if len(pts) != 2 || pts[0].last != 1 || pts[1].last != 4 {
		t.Fatalf("window = %+v", pts)
	}
}

func TestMaxSeriesCapDropsAndCounts(t *testing.T) {
	st := New(Config{MaxSeries: 2})
	st.Append("a", secUs, 1)
	st.Append("b", secUs, 1)
	st.Append("c", secUs, 1)
	if s := st.Stats(); s.Series != 2 || s.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 series 1 dropped", s)
	}
	if names := st.SeriesNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCounterResetNeverYieldsNegativeRate(t *testing.T) {
	st := New(Config{})
	// A counter climbing to 20, restarting (process restart), climbing
	// again: 0 → 10 → 20 → 5 → 15.
	fill(st, "c_count", 5, 0, 10, 20, 5, 15)
	// increase = 10 + 10 + 5 (reset: post-restart value) + 10 = 35.
	v, ok := st.Instant(Expr{Fn: "increase", Series: "c_count", WindowUs: 10 * secUs}, 5*secUs)
	if !ok || v != 35 {
		t.Fatalf("increase = %g ok=%v, want 35 true", v, ok)
	}
	v, ok = st.Instant(Expr{Fn: "rate", Series: "c_count", WindowUs: 10 * secUs}, 5*secUs)
	if !ok || v != 3.5 {
		t.Fatalf("rate = %g ok=%v, want 3.5 true", v, ok)
	}
	// Every step of a range query stays non-negative through the reset.
	for _, p := range st.Query(Expr{Fn: "rate", Series: "c_count", WindowUs: 2 * secUs}, secUs, 5*secUs, secUs) {
		if p.Value < 0 {
			t.Fatalf("negative rate %g at %d", p.Value, p.TsUs)
		}
	}
}

func TestInstantSemantics(t *testing.T) {
	st := New(Config{})
	if _, ok := st.Instant(Expr{Series: "missing"}, secUs); ok {
		t.Fatal("missing series reported ok")
	}
	fill(st, "g", 3, 7, 8, 9)
	// Bare series with no window: latest point at or before atUs.
	if v, ok := st.Instant(Expr{Series: "g"}, 2*secUs); !ok || v != 8 {
		t.Fatalf("instant at 2s = %g ok=%v, want 8 true", v, ok)
	}
	if v, ok := st.Instant(Expr{Series: "g"}, 100*secUs); !ok || v != 9 {
		t.Fatalf("instant at 100s = %g ok=%v, want 9 true", v, ok)
	}
	// Derived form without a window is a caller bug, not a zero.
	if _, ok := st.Instant(Expr{Fn: "rate", Series: "g"}, 3*secUs); ok {
		t.Fatal("rate without window reported ok")
	}
	// One point cannot make a rate.
	if _, ok := st.Instant(Expr{Fn: "rate", Series: "g", WindowUs: secUs / 2}, secUs); ok {
		t.Fatal("single-point rate reported ok")
	}
}

func TestBareQueryThinsToStep(t *testing.T) {
	st := New(Config{})
	fill(st, "g", 10)
	// 2s step keeps the last sample per bucket.
	pts := st.Query(Expr{Series: "g"}, secUs, 10*secUs, 2*secUs)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5: %+v", len(pts), pts)
	}
	for i, p := range pts {
		wantTs := (2*int64(i) + 1) * secUs
		wantV := float64(2*i + 1)
		if p.TsUs != wantTs || p.Value != wantV {
			t.Fatalf("point %d = %+v, want {%d %g}", i, p, wantTs, wantV)
		}
	}
}

func TestParseExpr(t *testing.T) {
	cases := []struct {
		in   string
		want Expr
		bad  bool
	}{
		{in: "feedback_score", want: Expr{Series: "feedback_score"}},
		{in: `x_count{proc="w"}`, want: Expr{Series: `x_count{proc="w"}`}},
		{in: "rate(x_count[30s])", want: Expr{Fn: "rate", Series: "x_count", WindowUs: 30 * secUs}},
		{in: "rate(x_count)[30s]", want: Expr{Fn: "rate", Series: "x_count", WindowUs: 30 * secUs}},
		{in: "increase(x_count[1m])", want: Expr{Fn: "increase", Series: "x_count", WindowUs: 60 * secUs}},
		{in: "avg_over_time(feedback_score[5s])", want: Expr{Fn: "avg_over_time", Series: "feedback_score", WindowUs: 5 * secUs}},
		{in: "max_over_time(g)", want: Expr{Fn: "max_over_time", Series: "g"}},
		{in: `rate(x_bucket{le="0.01"}[10s])`, want: Expr{Fn: "rate", Series: `x_bucket{le="0.01"}`, WindowUs: 10 * secUs}},
		{in: "", bad: true},
		{in: "histogram_quantile(x)", bad: true},
		{in: "x_count[30s]", bad: true}, // window needs a function
		{in: "rate(x_count[5s])[5s]", bad: true},
		{in: "rate(x_count[banana])", bad: true},
		{in: "rate(x_count[-5s])", bad: true},
		{in: "rate([5s])", bad: true},
		{in: "rate(x_count", bad: true},
		// a function's series obeys the bare series' rule, and a window
		// under a microsecond is not silently dropped
		{in: "rate(a)b)", bad: true},
		{in: "rate(a b)", bad: true},
		{in: "rate(a(b)", bad: true},
		{in: "rate(m[1ns])", bad: true},
		{in: "rate(m)[999ns]", bad: true},
		{in: "rate(m[1µs])", want: Expr{Fn: "rate", Series: "m", WindowUs: 1}},
	}
	for _, c := range cases {
		got, err := ParseExpr(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseExpr(%q) = %+v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseExpr(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParamHelpers(t *testing.T) {
	const now = 1_000 * secUs
	if n, err := trace.ParseLimitParam("", 7); err != nil || n != 7 {
		t.Fatalf("empty limit = %d, %v", n, err)
	}
	if n, err := trace.ParseLimitParam("50", 7); err != nil || n != 50 {
		t.Fatalf("limit 50 = %d, %v", n, err)
	}
	for _, bad := range []string{"0", "-3", "x", "1.5"} {
		if _, err := trace.ParseLimitParam(bad, 7); err == nil {
			t.Errorf("limit %q parsed", bad)
		}
	}
	if us, err := ParseTimeParam("", 42, now); err != nil || us != 42 {
		t.Fatalf("empty time = %d, %v", us, err)
	}
	if us, err := ParseTimeParam("123456", 0, now); err != nil || us != 123456 {
		t.Fatalf("absolute time = %d, %v", us, err)
	}
	if us, err := ParseTimeParam("-30s", 0, now); err != nil || us != now-30*secUs {
		t.Fatalf("relative time = %d, %v", us, err)
	}
	for _, bad := range []string{"yesterday", "30", "-"} {
		if bad == "30" {
			continue // bare integers are absolute timestamps, valid
		}
		if _, err := ParseTimeParam(bad, 0, now); err == nil {
			t.Errorf("time %q parsed", bad)
		}
	}
	if us, err := ParseStepParam("", 99); err != nil || us != 99 {
		t.Fatalf("empty step = %d, %v", us, err)
	}
	if us, err := ParseStepParam("2s", 0); err != nil || us != 2*secUs {
		t.Fatalf("step 2s = %d, %v", us, err)
	}
	for _, bad := range []string{"0s", "-1s", "fast"} {
		if _, err := ParseStepParam(bad, 0); err == nil {
			t.Errorf("step %q parsed", bad)
		}
	}
}

// queryDoc mirrors the handler's JSON response.
type queryDoc struct {
	Series string  `json:"series"`
	FromUs int64   `json:"fromUs"`
	ToUs   int64   `json:"toUs"`
	StepUs int64   `json:"stepUs"`
	Points []Point `json:"points"`
}

func TestHandlerServesRangeQuery(t *testing.T) {
	st := New(Config{})
	for i := 0; i < 60; i++ {
		st.Append("x_count", int64(i+1)*secUs, float64(i*3))
	}
	now := 60 * secUs
	h := Handler(st, func() int64 { return now })

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/query?series=rate(x_count[10s])&from=-30s&to=0s&step=5s", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var doc queryDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Series != "rate(x_count[10s])" || doc.FromUs != now-30*secUs || doc.ToUs != now || doc.StepUs != 5*secUs {
		t.Fatalf("doc header = %+v", doc)
	}
	if len(doc.Points) != 7 {
		t.Fatalf("got %d points, want 7: %+v", len(doc.Points), doc.Points)
	}
	// The counter climbs 3/s sampled at 1s; a 10s window holds 10 samples
	// = 9 deltas, so every full window rates 27/10s = 2.7.
	for _, p := range doc.Points {
		if p.Value != 2.7 {
			t.Fatalf("rate = %g at %d, want 2.7", p.Value, p.TsUs)
		}
	}
}

// TestHandlerBadRequests is the shared-400 table: every malformed
// from/to/step/limit/series shape must come back 400 with a reasoned body,
// never a silent default or a 500.
func TestHandlerBadRequests(t *testing.T) {
	st := New(Config{})
	st.Append("g", secUs, 1)
	h := Handler(st, func() int64 { return 60 * secUs })
	cases := []struct {
		name, query string
	}{
		{"missing series", ""},
		{"bad expr", "series=rate(g"},
		{"unknown fn", "series=foo(g[5s])"},
		{"bad from", "series=g&from=yesterday"},
		{"bad to", "series=g&to=later"},
		{"bad step", "series=g&step=0s"},
		{"negative step", "series=g&step=-5s"},
		{"bad limit", "series=g&limit=-1"},
		{"limit not a number", "series=g&limit=ten"},
		{"inverted range", "series=g&from=0s&to=-30s"},
		{"too many points", "series=g&from=-3000s&step=1ms"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/query?"+c.query, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400 (body %q)", c.name, rec.Code, rec.Body.String())
		}
		if strings.TrimSpace(rec.Body.String()) == "" {
			t.Errorf("%s: empty 400 body", c.name)
		}
	}
}

// TestRangeQueryEnds: a step under the store's 1 µs resolution used to
// reach the handler as 0 and divide by it, and a range whose length or last
// step overflows int64 used to pass the point cap or step past the end and
// wrap, running on for good. Each is now a 400 or a bounded answer.
func TestRangeQueryEnds(t *testing.T) {
	h := rangeHandler()
	for _, c := range []struct {
		query string
		code  int
	}{
		{"series=x&step=500ns", 400},
		{"series=rate(x)&step=999ns", 400},
		{"series=rate(x)&step=1us&from=-5ms", 200},
		{"series=rate(x)&from=9223372036854775800&to=9223372036854775807", 200},
		{"series=x&from=9223372036854775800&to=9223372036854775807", 200},
		{"series=rate(x)&from=-9000000000000000000&to=9000000000000000000", 400},
		{"series=x&from=-9223372036854775808&to=9223372036854775807&step=2562047h", 200},
		{"series=rate(x[5s])&from=-9223372036854775808&to=-9223372036854775808", 200},
	} {
		code, body, err := serveWithin(h, c.query, 3*time.Second)
		if err != nil || code != c.code {
			t.Errorf("%s: status %d, %v (body %q); want %d", c.query, code, err, body, c.code)
		}
	}
}

func TestScrapeAtFillsStoreDeterministically(t *testing.T) {
	st := New(Config{})
	reg := trace.NewRegistry()
	hist := reg.Histogram("x_seconds")
	for i := 0; i < 3; i++ {
		hist.Observe(time.Millisecond)
	}
	reg.RegisterGauge("gauge_a", func() float64 { return 4.5 })
	reg.Register(func(dst []trace.Sample) []trace.Sample {
		return append(dst, trace.Counter("frames_total", trace.Label("transport", "obs"), 7))
	})
	sc := NewScraper(ScrapeConfig{Store: st, Registry: reg})
	sc.ScrapeAt(10 * secUs)

	if v, ok := st.Instant(Expr{Series: "gauge_a"}, 10*secUs); !ok || v != 4.5 {
		t.Fatalf("gauge_a = %g ok=%v", v, ok)
	}
	// A labeled sample is stored under its full series name.
	if v, ok := st.Instant(Expr{Series: `frames_total{transport="obs"}`}, 10*secUs); !ok || v != 7 {
		t.Fatalf("labeled counter = %g ok=%v", v, ok)
	}
	if v, ok := st.Instant(Expr{Series: "x_seconds_count"}, 10*secUs); !ok || v != 3 {
		t.Fatalf("x_seconds_count = %g ok=%v, want 3", v, ok)
	}
	// Bucket, sum and quantile series materialize from the histogram.
	names := st.SeriesNames()
	var hasBucket, hasP95 bool
	for _, n := range names {
		if strings.HasPrefix(n, `x_seconds_bucket{le="`) {
			hasBucket = true
		}
		if n == "x_seconds_p95" {
			hasP95 = true
		}
	}
	if !hasBucket || !hasP95 {
		t.Fatalf("snapshot series missing from %v", names)
	}
	// The store's own accounting self-samples.
	if _, ok := st.Instant(Expr{Series: "tsdb_series"}, 10*secUs); !ok {
		t.Fatal("tsdb_series not self-sampled")
	}

	// A second scrape at a later stamp appends; same-stamp replays drop.
	sc.ScrapeAt(11 * secUs)
	sc.ScrapeAt(11 * secUs)
	if s := st.Stats(); s.Dropped == 0 {
		t.Fatalf("duplicate-stamp scrape not dropped: %+v", s)
	}
}

// TestAppendAllocs pins an Append to a series the store already holds,
// round-robin over 16, beside the histogram observation a scrape reads, at
// zero allocations: alone, which is exact, and with a live Scraper
// snapshotting that registry into that store. Scraped, 0 is a ceiling: the
// scraper's goroutine allocates on the counter AllocsPerRun reads (tens a
// scrape, thousands of appends between scrapes) and the integer division by
// the runs drops that share.
func TestAppendAllocs(t *testing.T) {
	for _, mode := range []string{"alone", "scraped"} {
		t.Run(mode, func(t *testing.T) {
			scraped := mode == "scraped"
			st, reg := New(Config{}), trace.NewRegistry()
			h := reg.Histogram("tsdb_alloc_seconds")
			names := make([]string, 16)
			for i := range names {
				names[i] = "alloc_series_" + string(rune('a'+i))
				st.Append(names[i], 1, 0)
			}
			sc := NewScraper(ScrapeConfig{Store: st, Interval: 5 * time.Millisecond, Registry: reg})
			if scraped {
				sc.Start()
				defer sc.Close()
			}
			i := 0
			// Measure until a scrape has landed inside a measured window.
			for before, windows := sc.dur.Count(), 0; windows < 1000; windows++ {
				got := testing.AllocsPerRun(20000, func() {
					i++
					h.Observe(time.Duration(1000 + i%1000))
					st.Append(names[i%len(names)], int64(i/len(names)+2), float64(i))
				})
				if got != 0 {
					t.Fatalf("Observe + Append allocates %v times, want 0", got)
				}
				if !scraped || sc.dur.Count() > before {
					return
				}
			}
			t.Fatal("the scraper never scraped")
		})
	}
}
