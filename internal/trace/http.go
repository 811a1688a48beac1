package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// Dump is the JSON document served by /trace and written by gridd's
// -trace-dump flag: one process's span ring plus enough metadata to know
// whether the ring wrapped.
type Dump struct {
	Proc    string   `json:"proc"`
	Enabled bool     `json:"enabled"`
	Total   uint64   `json:"total"`
	Dropped uint64   `json:"dropped"`
	Spans   []Record `json:"spans"`
}

// Snapshot captures the active tracer's ring under the given filter.
func Snapshot(f Filter) Dump {
	t := Active()
	if t == nil {
		return Dump{Enabled: false, Spans: []Record{}}
	}
	total, dropped := t.Stats()
	return Dump{
		Proc:    t.Proc(),
		Enabled: true,
		Total:   total,
		Dropped: dropped,
		Spans:   t.Records(f),
	}
}

// WriteDump writes the active tracer's ring as JSON (the -trace-dump
// format, identical to the /trace response body).
func WriteDump(w io.Writer, f Filter) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(Snapshot(f))
}

// ParseLimitParam parses a limit query parameter: "" yields def, and any
// other value must be a positive integer. Every endpoint that takes a limit
// (/trace, /logs, /query and their /fleet twins) parses it here, so a bad one
// reads the same everywhere.
func ParseLimitParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad limit %q: want a positive integer", s)
	}
	return n, nil
}

// ParseFilter reads a span filter from the query parameters /trace and
// /fleet/trace share:
//
//	session=ID   only spans of one negotiation session
//	shard=NAME   only spans labeled with the shard (or whose agent name
//	             contains it)
//	trace=HEX    only spans of one trace
//	limit=N      newest N matching spans
//
// A malformed parameter (non-hex trace, non-positive or non-numeric limit)
// is an error the handlers answer as a 400, not a silently unfiltered dump.
func ParseFilter(q url.Values) (Filter, error) {
	f := Filter{Session: q.Get("session"), Shard: q.Get("shard"), Trace: q.Get("trace")}
	if f.Trace != "" {
		id, ok := ParseID(f.Trace)
		if !ok {
			return Filter{}, fmt.Errorf("bad trace %q: want a hex id", f.Trace)
		}
		f.Trace = hexID(id) // the zero-padded form records render ids in
	}
	var err error
	f.Limit, err = ParseLimitParam(q.Get("limit"), 0)
	return f, err
}

// Handler serves the active tracer's ring as JSON under ParseFilter's query
// parameters. When tracing is disabled the response is {"enabled":false,...}
// with status 200, so scrapers need no special-casing.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := ParseFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteDump(w, f)
	})
}
