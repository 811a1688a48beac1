package health

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/trace"
)

// The flight recorder turns "something went wrong" into a self-contained
// bundle on disk: one directory under <data-dir>/flightrec/ holding the
// trace ring, log ring, a metrics snapshot, and alert state as they were
// at the moment of the trigger. Bundles are written to a temp directory
// and renamed into place so a crash mid-dump never leaves a half bundle
// with a valid name, and only the newest N are kept.

// BundleMeta is the bundle's meta.json.
type BundleMeta struct {
	Proc    string  `json:"proc"`
	Reason  string  `json:"reason"`
	Detail  string  `json:"detail,omitempty"`
	WhenUs  int64   `json:"whenUs"`
	Slowest string  `json:"slowestSession,omitempty"` // slowest session.open span's session id
	Score   float64 `json:"feedbackScore"`
	Firing  int     `json:"alertsFiring"`
	Layout  string  `json:"layout"` // documents the bundle contents
}

// Recorder dumps flight-recorder bundles.
type Recorder struct {
	dir    string // <data-dir>/flightrec
	keep   int
	logger *Logger
	scorer *Scorer // may be nil
	engine *Engine // may be nil
	// metrics is the role's registry; metrics.prom is its /metrics page.
	metrics *trace.Registry
	// ProfileDur > 0 adds runtime profiles to each bundle: heap.pprof
	// inline, plus a CPU profile of this duration captured asynchronously
	// (cpu.pprof appears in the bundle once the capture window closes, so
	// the triggering path — an alert inside the tick loop — never blocks
	// on it). Set before the first Dump.
	ProfileDur time.Duration

	mu        sync.Mutex // serialises dumps
	seq       int        // disambiguates bundles within the same second
	cpuBusy   atomic.Bool
	profileWG sync.WaitGroup
}

// DefaultKeep is how many bundles a recorder keeps unless told otherwise —
// what every gridd role runs with.
const DefaultKeep = 8

// NewRecorder builds a recorder rooted at dir (created on first dump) that
// snapshots metrics into each bundle. keep <= 0 means DefaultKeep.
func NewRecorder(dir string, keep int, logger *Logger, metrics *trace.Registry) *Recorder {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Recorder{dir: dir, keep: keep, logger: logger, metrics: metrics}
}

// Bind attaches the score and alert state to subsequent bundles.
func (r *Recorder) Bind(scorer *Scorer, engine *Engine) {
	r.mu.Lock()
	r.scorer = scorer
	r.engine = engine
	r.mu.Unlock()
}

// Dir returns the bundle root.
func (r *Recorder) Dir() string { return r.dir }

func (r *Recorder) log() *Logger {
	if r.logger != nil {
		return r.logger
	}
	return Default()
}

// Dump writes one bundle and returns its directory. reason is a short
// token ("alert", "panic", "shutdown"); detail is free text (the alert
// name, the panic value).
func (r *Recorder) Dump(reason, detail string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	now := time.Now()
	r.seq++
	name := fmt.Sprintf("%s-%s-%03d", now.UTC().Format("20060102T150405Z"), reason, r.seq)
	tmp := filepath.Join(r.dir, stagingPrefix+name)
	final := filepath.Join(r.dir, name)

	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("health: flightrec: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after successful rename

	traceDump := trace.Snapshot(trace.Filter{})
	meta := BundleMeta{
		Proc:    r.log().Proc(),
		Reason:  reason,
		Detail:  detail,
		WhenUs:  now.UnixMicro(),
		Slowest: slowestSession(traceDump.Spans),
		Layout:  "meta.json trace.json logs.json metrics.prom alerts.json",
	}
	if r.ProfileDur > 0 {
		meta.Layout += " heap.pprof cpu.pprof"
	}
	if r.scorer != nil {
		meta.Score = r.scorer.Value()
	}
	if r.engine != nil {
		meta.Firing = r.engine.FiringCount()
	}

	steps := []struct {
		file  string
		write func(w io.Writer) error
	}{
		{"meta.json", func(w io.Writer) error { return writeMetaJSON(w, &meta) }},
		{"trace.json", func(w io.Writer) error { return trace.WriteDump(w, trace.Filter{}) }},
		{"logs.json", func(w io.Writer) error { return WriteLogDump(w, r.log(), LogFilter{}) }},
		{"metrics.prom", func(w io.Writer) error { return trace.WriteMetrics(w, r.metrics.Gather()) }},
		{"alerts.json", func(w io.Writer) error {
			var alerts []AlertStatus
			if r.engine != nil {
				alerts = r.engine.Status()
			}
			writeAlertsJSON(w, alerts)
			return nil
		}},
	}
	if r.ProfileDur > 0 {
		steps = append(steps, struct {
			file  string
			write func(w io.Writer) error
		}{"heap.pprof", func(w io.Writer) error { return pprof.WriteHeapProfile(w) }})
	}
	for _, s := range steps {
		if err := writeBundleFile(filepath.Join(tmp, s.file), s.write); err != nil {
			return "", fmt.Errorf("health: flightrec %s: %w", s.file, err)
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("health: flightrec: %w", err)
	}
	r.pruneLocked()
	if r.ProfileDur > 0 {
		r.startCPUProfile(final)
	}
	r.log().Log(Info, "flightrec", "bundle written",
		Str("reason", reason), Str("detail", detail), Str("dir", final))
	return final, nil
}

// startCPUProfile captures cpu.pprof into an already-renamed bundle in
// the background. Only one capture runs at a time (the runtime allows a
// single CPU profile per process); overlapping dumps skip theirs and log
// the gap rather than queueing behind a 2s window.
func (r *Recorder) startCPUProfile(bundleDir string) {
	if !r.cpuBusy.CompareAndSwap(false, true) {
		r.log().Log(Info, "flightrec", "cpu profile skipped (capture in progress)",
			Str("dir", bundleDir))
		return
	}
	path := filepath.Join(bundleDir, "cpu.pprof")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		r.cpuBusy.Store(false)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		r.cpuBusy.Store(false)
		r.log().Log(Info, "flightrec", "cpu profile unavailable", Str("err", err.Error()))
		return
	}
	dur := r.ProfileDur
	r.profileWG.Add(1)
	go func() {
		defer r.profileWG.Done()
		defer r.cpuBusy.Store(false)
		timer := time.NewTimer(dur) //gridlint:allow walltime(profile capture window is a genuine wall-clock measurement)
		<-timer.C
		pprof.StopCPUProfile()
		f.Close()
	}()
}

// WaitProfiles blocks until any in-flight CPU profile capture finishes —
// shutdown paths and tests call it so bundles are complete on disk.
func (r *Recorder) WaitProfiles() {
	if r == nil {
		return
	}
	r.profileWG.Wait()
}

func writeBundleFile(path string, write func(w io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetaJSON(w io.Writer, m *BundleMeta) error {
	b := make([]byte, 0, 256)
	b = append(b, `{"proc":`...)
	b = trace.AppendJSONString(b, m.Proc)
	b = append(b, `,"reason":`...)
	b = trace.AppendJSONString(b, m.Reason)
	if m.Detail != "" {
		b = append(b, `,"detail":`...)
		b = trace.AppendJSONString(b, m.Detail)
	}
	b = append(b, `,"whenUs":`...)
	b = strconv.AppendInt(b, m.WhenUs, 10)
	if m.Slowest != "" {
		b = append(b, `,"slowestSession":`...)
		b = trace.AppendJSONString(b, m.Slowest)
	}
	b = append(b, `,"feedbackScore":`...)
	b = strconv.AppendFloat(b, m.Score, 'g', -1, 64)
	b = append(b, `,"alertsFiring":`...)
	b = strconv.AppendInt(b, int64(m.Firing), 10)
	b = append(b, `,"layout":`...)
	b = trace.AppendJSONString(b, m.Layout)
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// slowestSession returns the session label of the longest session.open
// span in the snapshot — the negotiation an operator wants to look at
// first after an overload.
func slowestSession(spans []trace.Record) string {
	var best string
	var bestDur int64 = -1
	for i := range spans {
		if spans[i].Name == "session.open" && spans[i].DurUs > bestDur {
			bestDur = spans[i].DurUs
			best = spans[i].Session
		}
	}
	return best
}

// stagingPrefix marks the temp dir a bundle is assembled in before the atomic
// rename that publishes it.
const stagingPrefix = ".tmp-"

// scanBundles splits the directories under a bundle root into complete
// bundles in name order (timestamp to the second, then reason, then sequence
// number: oldest first but for dumps of different reasons within one second)
// and staging dirs.
func scanBundles(dir string) (bundles, staging []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		switch {
		case !e.IsDir():
		case strings.HasPrefix(e.Name(), stagingPrefix):
			staging = append(staging, e.Name())
		default:
			bundles = append(bundles, e.Name())
		}
	}
	sort.Strings(bundles)
	return bundles, staging, nil
}

// Bundles returns the paths of the complete bundles under a flight-recorder
// root, in the name order pruning uses. A bundle still being staged is not listed: whatever
// this returns has every file of its layout. A root no dump has created yet
// lists as empty.
func Bundles(dir string) ([]string, error) {
	names, _, err := scanBundles(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("health: flightrec: %w", err)
	}
	for i, n := range names {
		names[i] = filepath.Join(dir, n)
	}
	return names, nil
}

// Bundles lists this recorder's complete bundles; see the package function.
func (r *Recorder) Bundles() ([]string, error) { return Bundles(r.dir) }

// pruneLocked removes the oldest bundles beyond keep, plus any stale
// temp dirs from crashed dumps.
func (r *Recorder) pruneLocked() {
	bundles, staging, err := scanBundles(r.dir)
	if err != nil {
		return
	}
	for _, name := range staging {
		os.RemoveAll(filepath.Join(r.dir, name))
	}
	for len(bundles) > r.keep {
		os.RemoveAll(filepath.Join(r.dir, bundles[0]))
		bundles = bundles[1:]
	}
}

// ----- crash-dump hook -----

// activeRecorder backs CrashDump so defer/recover sites deep in main can
// trigger a bundle without threading the recorder through every layer.
var activeRecorder atomic.Pointer[Recorder]

// SetRecorder installs the process-wide recorder for CrashDump.
func SetRecorder(r *Recorder) { activeRecorder.Store(r) }

// CrashDump writes a bundle through the process-wide recorder (no-op if
// none is installed). Safe to call from recover handlers.
func CrashDump(reason, detail string) string {
	r := activeRecorder.Load()
	if r == nil {
		return ""
	}
	dir, err := r.Dump(reason, detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "health: crash dump failed: %v\n", err) //gridlint:allow structuredlog(crash-dump failure is the last resort; the logger may be the thing that is broken)
	}
	return dir
}
