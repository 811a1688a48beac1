package lint

import "regexp"

// replayRestoreFuncs matches the telemetry functions that form the
// replay/restore surface: crash recovery (OpenDurable), standby replay
// (OpenStandby, Promote, the shared applySnapshotState/applyJournalRecord
// helpers), and the Restore* state re-seeding entry points they call.
var replayRestoreFuncs = regexp.MustCompile(
	`(?i)^(Restore.*|Replay.*|Recover.*|applySnapshotState|applyJournalRecord|OpenDurable|OpenStandby|Promote)$`)

// tsdbDeterministicFuncs matches the tsdb store's deterministic surface:
// every append/fold/query path takes injected timestamps and must never
// read the clock, or replaying the same scrape sequence would produce a
// different history. The scraper's own run loop (NewScraper/Start/run)
// stays unmatched — its ticker and wall clock are the one place time
// legitimately enters.
var tsdbDeterministicFuncs = regexp.MustCompile(
	`^(Append|AppendBatch|appendLocked|foldLocked|window|Query|Instant|ScrapeAt|evalWindow|thin)$`)

// DefaultWalltimeConfig scopes walltime to this repo's deterministic
// replay surface.
func DefaultWalltimeConfig() WalltimeConfig {
	return WalltimeConfig{
		ForbiddenPkgs: []string{
			"internal/protocol",
			"internal/core",
			"internal/cluster",
			"internal/utilityagent",
		},
		RestrictedFuncs: map[string]*regexp.Regexp{
			"internal/telemetry": replayRestoreFuncs,
			"internal/tsdb":      tsdbDeterministicFuncs,
		},
	}
}

// DefaultAnalyzers returns the gridlint suite with repo-default scopes.
// Order is the order findings list analyzers in -list output; findings
// themselves sort by position.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		FloatMapRange(),
		Walltime(DefaultWalltimeConfig()),
		GlobalRand(),
		StructuredLog(),
		LockedSend(),
	}
}
