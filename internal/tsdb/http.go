package tsdb

import (
	"net/http"
	"strconv"

	"loadbalance/internal/trace"
)

// maxQueryPoints caps one response; step is the client's tool to stay
// under it on wide ranges.
const maxQueryPoints = 10000

// Handler serves range queries against st as JSON:
//
//	GET /query?series=rate(x_count[30s])&from=-60s&to=0s&step=1s
//
// from/to accept absolute unix microseconds or now-relative durations
// (default: the last minute); step defaults to 1s. The response carries
// the resolved bounds plus the evaluated points.
func Handler(st *Store, nowUs func() int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		expr, err := ParseExpr(q.Get("series"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		now := nowUs()
		from, err := ParseTimeParam(q.Get("from"), now-60_000_000, now)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		to, err := ParseTimeParam(q.Get("to"), now, now)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		step, err := ParseStepParam(q.Get("step"), 1_000_000)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit, err := trace.ParseLimitParam(q.Get("limit"), maxQueryPoints)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if to < from {
			http.Error(w, "bad range: to precedes from", http.StatusBadRequest)
			return
		}
		if limit > maxQueryPoints {
			limit = maxQueryPoints
		}
		if stepsAfter(from, to, step) >= uint64(limit) {
			http.Error(w, "range/step yields too many points; raise step or narrow the range", http.StatusBadRequest)
			return
		}
		pts := st.Query(expr, from, to, step)
		w.Header().Set("Content-Type", "application/json")
		writeQueryJSON(w, expr, from, to, step, pts)
	}
}

// writeQueryJSON renders the query response without encoding/json,
// matching the repo's other hot-path JSON surfaces.
func writeQueryJSON(w http.ResponseWriter, e Expr, fromUs, toUs, stepUs int64, pts []Point) {
	b := make([]byte, 0, 128+32*len(pts))
	b = append(b, `{"series":`...)
	b = trace.AppendJSONString(b, e.String())
	b = append(b, `,"fromUs":`...)
	b = strconv.AppendInt(b, fromUs, 10)
	b = append(b, `,"toUs":`...)
	b = strconv.AppendInt(b, toUs, 10)
	b = append(b, `,"stepUs":`...)
	b = strconv.AppendInt(b, stepUs, 10)
	b = append(b, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tsUs":`...)
		b = strconv.AppendInt(b, p.TsUs, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, p.Value, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	_, _ = w.Write(b)
}
