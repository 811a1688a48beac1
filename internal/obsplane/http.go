package obsplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// FleetLogEvent is one merged log event as served on /fleet/logs.
type FleetLogEvent struct {
	TsUs      int64           `json:"tsUs"`
	Level     string          `json:"level"`
	Proc      string          `json:"proc"`
	Component string          `json:"component"`
	Msg       string          `json:"msg"`
	Fields    json.RawMessage `json:"fields,omitempty"`
}

// FleetLogsDoc is the /fleet/logs response body.
type FleetLogsDoc struct {
	Procs  []string        `json:"procs"`
	Missed uint64          `json:"missed"` // events lost before reaching the root (wraps + sheds)
	Events []FleetLogEvent `json:"events"`
}

// FleetTraceDoc is the /fleet/trace response body: the span rings of every
// subscribed process merged into one stream, stitched by shared trace ids.
type FleetTraceDoc struct {
	Procs  []string       `json:"procs"`
	Missed uint64         `json:"missed"` // spans lost before reaching the root
	Spans  []trace.Record `json:"spans"`
}

// logFilter selects events for /fleet/logs: /logs' filter plus the two
// parameters only a merged view has.
type logFilter struct {
	health.LogFilter
	proc    string // exact process label
	afterUs int64  // only events strictly newer — the gridctl logs -f cursor
}

// MergedLogs returns the fleet's log events oldest-first under the filter.
func (h *Hub) mergedLogs(f logFilter) FleetLogsDoc {
	h.mu.Lock()
	doc := FleetLogsDoc{Events: []FleetLogEvent{}}
	names := make([]string, 0, len(h.procs))
	for n := range h.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	doc.Procs = names
	for _, n := range names {
		p := h.procs[n]
		doc.Missed += p.missedLogs + p.logRing.Dropped()
		if f.proc != "" && n != f.proc {
			continue
		}
		for i := 0; i < p.logRing.Len(); i++ {
			fl := p.logRing.At(i)
			lv, err := health.ParseLevel(fl.ev.Level)
			if err != nil || lv < f.MinLevel {
				continue
			}
			if f.Component != "" && fl.ev.Component != f.Component {
				continue
			}
			if fl.ev.TsUs <= f.afterUs {
				continue
			}
			doc.Events = append(doc.Events, FleetLogEvent{
				TsUs:      fl.ev.TsUs,
				Level:     fl.ev.Level,
				Proc:      fl.proc,
				Component: fl.ev.Component,
				Msg:       fl.ev.Msg,
				Fields:    fl.ev.Fields,
			})
		}
	}
	h.mu.Unlock()
	sort.SliceStable(doc.Events, func(i, j int) bool {
		if doc.Events[i].TsUs != doc.Events[j].TsUs {
			return doc.Events[i].TsUs < doc.Events[j].TsUs
		}
		return doc.Events[i].Proc < doc.Events[j].Proc
	})
	if f.Limit > 0 && len(doc.Events) > f.Limit {
		doc.Events = doc.Events[len(doc.Events)-f.Limit:]
	}
	return doc
}

// mergedTrace returns the fleet's spans under the filter, the hub process's
// own active ring included (the root is part of its own fleet).
func (h *Hub) mergedTrace(f trace.Filter) FleetTraceDoc {
	doc := FleetTraceDoc{Spans: []trace.Record{}}
	procSet := make(map[string]bool)
	if t := trace.Active(); t != nil {
		for _, r := range t.Records(trace.Filter{Session: f.Session, Trace: f.Trace, Shard: f.Shard}) {
			doc.Spans = append(doc.Spans, r)
			procSet[r.Proc] = true
		}
	}

	h.mu.Lock()
	names := make([]string, 0, len(h.procs))
	for n := range h.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := h.procs[n]
		doc.Missed += p.missedSpans + p.spanRing.Dropped()
		for i := 0; i < p.spanRing.Len(); i++ {
			r := p.spanRing.At(i)
			if id, _ := trace.ParseID(r.Trace); !f.Match(id, r.Session, r.Shard, r.Agent) {
				continue
			}
			doc.Spans = append(doc.Spans, r)
			procSet[r.Proc] = true
		}
	}
	h.mu.Unlock()

	sort.SliceStable(doc.Spans, func(i, j int) bool {
		if doc.Spans[i].StartUs != doc.Spans[j].StartUs {
			return doc.Spans[i].StartUs < doc.Spans[j].StartUs
		}
		return doc.Spans[i].Span < doc.Spans[j].Span
	})
	if f.Limit > 0 && len(doc.Spans) > f.Limit {
		doc.Spans = doc.Spans[len(doc.Spans)-f.Limit:]
	}
	for n := range procSet {
		doc.Procs = append(doc.Procs, n)
	}
	sort.Strings(doc.Procs)
	return doc
}

// FleetLogsHandler serves the merged fleet log view. Query params: those of
// /logs (health.ParseLogFilter) plus proc and afterUs. Malformed params are
// a 400, not a silent full dump.
func (h *Hub) FleetLogsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		lf, err := health.ParseLogFilter(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f := logFilter{LogFilter: lf, proc: q.Get("proc")}
		if s := q.Get("afterUs"); s != "" {
			if f.afterUs, err = strconv.ParseInt(s, 10, 64); err != nil {
				http.Error(w, fmt.Sprintf("bad afterUs %q: want unix microseconds", s), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h.mergedLogs(f))
	}
}

// FleetTraceHandler serves the stitched cross-process trace view under
// /trace's query params (trace.ParseFilter).
func (h *Hub) FleetTraceHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := trace.ParseFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h.mergedTrace(f))
	}
}

// FleetStatusHandler serves the per-process streaming state (gridctl top's
// data source).
func (h *Hub) FleetStatusHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"fleetScore": h.FleetScore(),
			"silenceAge": h.SilenceAge(),
			"procs":      h.Status(),
		})
	}
}

// Samples appends the hub's own series — the fleet_* gauges and per-process
// obs_* counters (each counter series labelled {proc=...}) — without the
// relayed samples. This is what the host daemon publishes on its registry.
func (h *Hub) Samples(dst []trace.Sample) []trace.Sample {
	st := h.Status()
	dst = append(dst,
		trace.Gauge("fleet_procs", "", float64(len(st))),
		trace.Gauge("fleet_last_batch_age_seconds", "", h.SilenceAge()),
		trace.Gauge("fleet_feedback_score", "", h.FleetScore()))
	for _, c := range []struct {
		family string
		get    func(*ProcStatus) uint64
	}{
		{"obs_batches_total", func(p *ProcStatus) uint64 { return p.Batches }},
		{"obs_logs_total", func(p *ProcStatus) uint64 { return p.Logs }},
		{"obs_spans_total", func(p *ProcStatus) uint64 { return p.Spans }},
		{"obs_missed_logs_total", func(p *ProcStatus) uint64 { return p.MissedLogs }},
		{"obs_missed_spans_total", func(p *ProcStatus) uint64 { return p.MissedSpans }},
	} {
		for i := range st {
			dst = append(dst, trace.Counter(c.family, trace.Label("proc", st[i].Proc), c.get(&st[i])))
		}
	}
	return dst
}

// FleetSamples is the full fleet metrics page: the hub summary, then every
// process's streamed samples re-labelled with their sender, in proc order.
// Relayed series are untyped (their types live on the origin pages).
func (h *Hub) FleetSamples() []trace.Sample {
	out := h.Samples(nil)
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.procs))
	for n := range h.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, s := range h.procs[n].metrics {
			out = append(out, relabel(s, n))
		}
	}
	return out
}

// Mount registers the /fleet endpoints on a mux. /fleet/query appears
// only when the hub retains history.
func (h *Hub) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/fleet/metrics", trace.MetricsHandler(h.FleetSamples))
	mux.HandleFunc("/fleet/logs", h.FleetLogsHandler())
	mux.HandleFunc("/fleet/trace", h.FleetTraceHandler())
	mux.HandleFunc("/fleet/status", h.FleetStatusHandler())
	if h.cfg.History != nil {
		mux.HandleFunc("/fleet/query", tsdb.Handler(h.cfg.History, func() int64 { return time.Now().UnixMicro() }))
	}
}

// relabel turns one streamed sample into the fleet's untyped sample of it,
// the sender's proc label first: `foo` becomes `foo{proc="x"}`, `foo{a="b"}`
// becomes `foo{proc="x",a="b"}`. A proc label the series already carries (a
// hub host streaming its own obs_* counters) survives as exported_proc.
func relabel(m message.ObsMetricSample, proc string) trace.Sample {
	family, labels := trace.ParseSeries(m.Name)
	s := trace.Sample{Family: family, Labels: trace.Label("proc", proc), Value: m.Value}
	if labels != "" {
		s.Labels += strings.ReplaceAll(","+labels, `,proc="`, `,exported_proc="`)
	}
	return s
}
