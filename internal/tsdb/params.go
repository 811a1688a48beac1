package tsdb

// Query-parameter parsing shared by /query and /fleet/query: both accept the
// same from/to/step shapes and reject malformed values with the same 400
// text. The limit parameter, which /trace and /logs take too, is parsed by
// trace.ParseLimitParam — tsdb imports trace, not the other way round.

import (
	"fmt"
	"strconv"
	"time"
)

// ParseTimeParam parses a from/to query parameter into absolute
// microseconds: "" yields def, a bare integer is an absolute unix-µs
// timestamp, and a signed duration ("-30s", "1m") is relative to nowUs.
func ParseTimeParam(s string, def, nowUs int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	if us, err := strconv.ParseInt(s, 10, 64); err == nil {
		return us, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: want unix microseconds or a relative duration like -30s", s)
	}
	return nowUs + d.Microseconds(), nil
}

// ParseStepParam parses a step/window query parameter into microseconds:
// "" yields defUs, anything else must be a duration of at least 1µs — the
// store's resolution, below which a step would be 0.
func ParseStepParam(s string, defUs int64) (int64, error) {
	if s == "" {
		return defUs, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < time.Microsecond {
		return 0, fmt.Errorf("bad step %q: want a duration of at least 1µs, like 1s", s)
	}
	return d.Microseconds(), nil
}
