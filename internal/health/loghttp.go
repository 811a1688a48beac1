package health

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"loadbalance/internal/trace"
)

// appendEventJSON renders one event as a compact JSON object. Hand-rolled
// for the same reason the trace dump writer is: the fields are dynamic
// key/value pairs that encoding/json would force through maps, and the
// file sink runs under the ring lock.
func appendEventJSON(b []byte, proc string, ev *event) []byte {
	b = append(b, `{"tsUs":`...)
	b = strconv.AppendInt(b, ev.timeUs, 10)
	b = append(b, `,"level":`...)
	b = trace.AppendJSONString(b, ev.level.String())
	if proc != "" {
		b = append(b, `,"proc":`...)
		b = trace.AppendJSONString(b, proc)
	}
	b = append(b, `,"component":`...)
	b = trace.AppendJSONString(b, ev.component)
	b = append(b, `,"msg":`...)
	b = trace.AppendJSONString(b, ev.msg)
	for _, f := range ev.fields {
		b = append(b, ',')
		b = appendFieldJSON(b, &f)
	}
	b = append(b, '}')
	return b
}

// appendFieldJSON renders one field as `"key":value`.
func appendFieldJSON(b []byte, f *Field) []byte {
	b = trace.AppendJSONString(b, f.Key)
	b = append(b, ':')
	if f.isInt {
		b = strconv.AppendInt(b, f.Int, 10)
	} else {
		b = trace.AppendJSONString(b, f.Str)
	}
	return b
}

// appendFieldsJSON renders a field list as one JSON object — the transit
// form a StreamEvent carries across processes.
func appendFieldsJSON(b []byte, fields []Field) []byte {
	b = append(b, '{')
	for i := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFieldJSON(b, &fields[i])
	}
	return append(b, '}')
}

// appendAPIEventJSON renders an /logs API event (same shape as the file
// sink lines).
func appendAPIEventJSON(b []byte, ev *Event) []byte {
	lv, _ := ParseLevel(ev.Level)
	e := event{timeUs: ev.TimeUs, level: lv, component: ev.Component, msg: ev.Msg, fields: ev.Fields}
	return appendEventJSON(b, "", &e)
}

// WriteLogDump renders the logger's ring as one JSON document — the /logs
// response body and the flight-recorder logs.json payload.
func WriteLogDump(w io.Writer, l *Logger, f LogFilter) error {
	events := l.Events(f)
	total, dropped, _ := l.Stats()
	b := make([]byte, 0, 256+128*len(events))
	b = append(b, `{"proc":`...)
	b = trace.AppendJSONString(b, l.Proc())
	b = append(b, `,"total":`...)
	b = strconv.AppendUint(b, total, 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendUint(b, dropped, 10)
	b = append(b, `,"events":[`...)
	for i := range events {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAPIEventJSON(b, &events[i])
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// ParseLogFilter reads a log filter from the query parameters /logs and
// /fleet/logs share: level (minimum level name), component (exact match),
// limit (newest N). A malformed one is an error the handlers answer as a
// 400, not a silent full dump.
func ParseLogFilter(q url.Values) (LogFilter, error) {
	f := LogFilter{Component: q.Get("component")}
	if s := q.Get("level"); s != "" {
		lv, err := ParseLevel(s)
		if err != nil {
			return LogFilter{}, fmt.Errorf("bad level %q: want debug, info, warn, error or off", s)
		}
		f.MinLevel = lv
	}
	var err error
	f.Limit, err = trace.ParseLimitParam(q.Get("limit"), 0)
	return f, err
}

// LogHandler serves the logger's ring as JSON under ParseLogFilter's query
// parameters.
func LogHandler(l *Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := ParseLogFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteLogDump(w, l, f)
	}
}

// Samples appends the logger's counters.
func (l *Logger) Samples(dst []trace.Sample) []trace.Sample {
	total, dropped, perLevel := l.Stats()
	for i, c := range perLevel {
		dst = append(dst, trace.Counter("health_log_events_total", trace.Label("level", Level(i).String()), c))
	}
	return append(dst,
		trace.Counter("health_log_ring_total", "", total),
		trace.Counter("health_log_ring_dropped_total", "", dropped))
}
