package tsdb

import (
	"sync"
	"time"

	"loadbalance/internal/trace"
)

// ScrapeConfig wires a Scraper to its sources.
type ScrapeConfig struct {
	Store *Store
	// Interval between scrapes (default 1s). Start is a no-op when <= 0.
	Interval time.Duration
	// Registry is what each scrape gathers: the role's collectors and
	// histograms. The scraper publishes the store's own accounting and its
	// scrape latency there too.
	Registry *trace.Registry
}

// Scraper periodically samples the registry into the store, stamping each
// scrape with the wall clock. One goroutine; Close is idempotent.
type Scraper struct {
	cfg       ScrapeConfig
	dur       *trace.Histogram
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewScraper builds a scraper (not yet started); ScrapeAt can be driven
// manually for deterministic tests.
func NewScraper(cfg ScrapeConfig) *Scraper {
	cfg.Registry.Register(cfg.Store.Samples)
	return &Scraper{
		cfg:  cfg,
		dur:  cfg.Registry.Histogram("tsdb_scrape_duration_seconds"),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the scrape loop.
func (sc *Scraper) Start() {
	if sc.cfg.Interval <= 0 {
		close(sc.done)
		return
	}
	go sc.run()
}

func (sc *Scraper) run() {
	defer close(sc.done)
	t := time.NewTicker(sc.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
			start := time.Now()
			sc.ScrapeAt(start.UnixMicro())
			sc.dur.Observe(time.Since(start))
		}
	}
}

// Close stops the loop and waits for it to exit. A nil Scraper — a role
// with history disabled — has nothing to stop.
func (sc *Scraper) Close() {
	if sc == nil {
		return
	}
	sc.closeOnce.Do(func() { close(sc.stop) })
	<-sc.done
}

// ScrapeAt performs one scrape, stamping every gathered sample with the
// injected timestamp under its full series name.
func (sc *Scraper) ScrapeAt(tsUs int64) {
	gathered := sc.cfg.Registry.Gather()
	batch := make([]Sample, len(gathered))
	for i, s := range gathered {
		batch[i] = Sample{Name: s.Series(), Value: s.Value}
	}
	sc.cfg.Store.AppendBatch(tsUs, batch)
}
