package main

import (
	"net/http"
	"time"

	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// The metrics-history layer: every role with an HTTP endpoint runs a
// tsdb scraper over its own registry and serves range queries on
// /query; the serve root additionally retains the fleet's streamed
// samples (hub-side) behind /fleet/query.

// historyOptions carries the -tsdb-interval/-tsdb-retention flags.
type historyOptions struct {
	interval  time.Duration // 0 disables history entirely
	retention time.Duration
}

// rawCapacity sizes the raw ring so it spans the requested retention at
// the scrape interval, clamped to keep per-series memory bounded. Older
// points continue into the downsampled tier beyond this.
func (o historyOptions) rawCapacity() int {
	if o.interval <= 0 {
		return 0
	}
	n := int(o.retention / o.interval)
	if n < 64 {
		n = 64
	}
	if n > 65536 {
		n = 65536
	}
	return n
}

// newHistoryStore builds a store sized by the flags, or nil when history
// is disabled.
func newHistoryStore(o historyOptions) *tsdb.Store {
	if o.interval <= 0 {
		return nil
	}
	return tsdb.New(tsdb.Config{RawCapacity: o.rawCapacity()})
}

// startHistoryScraper launches the scrape loop filling store from the
// role's registry. Returns nil when history is disabled.
func startHistoryScraper(o historyOptions, store *tsdb.Store, reg *trace.Registry) *tsdb.Scraper {
	if store == nil {
		return nil
	}
	sc := tsdb.NewScraper(tsdb.ScrapeConfig{Store: store, Interval: o.interval, Registry: reg})
	sc.Start()
	return sc
}

// mountQuery serves /query over the process-local store (no-op when
// history is disabled).
func mountQuery(mux *http.ServeMux, store *tsdb.Store) {
	if store == nil {
		return
	}
	mux.HandleFunc("/query", tsdb.Handler(store, func() int64 { return time.Now().UnixMicro() }))
}

// closeScraper stops a scraper if one runs.
func closeScraper(sc *tsdb.Scraper) {
	if sc != nil {
		sc.Close()
	}
}
