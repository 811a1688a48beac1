package trace

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// getTrace runs one request against the handler and decodes the dump when
// the status is 200.
func getTrace(t *testing.T, query string) (int, Dump) {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace"+query, nil))
	var d Dump
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("GET /trace%s: bad JSON: %v\n%s", query, err, rec.Body.String())
		}
	}
	return rec.Code, d
}

func TestHandlerFilterCombinations(t *testing.T) {
	Disable()
	t.Cleanup(Disable)
	Enable("combproc", 64)

	// Two sessions across two shards; remember one span's trace id to
	// filter on it.
	var wantTrace string
	for i := 0; i < 3; i++ {
		sp := Root("session.open")
		sp.SetSession("s-A")
		sp.SetShard("shard-0")
		sp.End()
	}
	sp := Root("session.open")
	sp.SetSession("s-A")
	sp.SetShard("shard-1")
	wantTrace = hexID(sp.Context().Trace)
	sp.End()
	for i := 0; i < 2; i++ {
		sp := Root("session.open")
		sp.SetSession("s-B")
		sp.SetShard("shard-1")
		sp.End()
	}

	cases := []struct {
		query string
		want  int // matching span count
	}{
		{"", 6},
		{"?session=s-A", 4},
		{"?session=s-A&shard=shard-0", 3},
		{"?session=s-A&shard=shard-1", 1},
		{"?session=s-A&shard=shard-1&trace=" + wantTrace, 1},
		{"?session=s-B&trace=" + wantTrace, 0}, // trace belongs to s-A
		{"?session=s-A&limit=2", 2},
		{"?session=s-A&shard=shard-0&limit=1", 1},
		{"?trace=" + wantTrace + "&limit=5", 1},
		{"?session=absent", 0},
		{"?shard=shard-9", 0},
	}
	for _, c := range cases {
		code, d := getTrace(t, c.query)
		if code != 200 {
			t.Fatalf("GET /trace%s = %d, want 200", c.query, code)
		}
		if len(d.Spans) != c.want {
			t.Fatalf("GET /trace%s: %d spans, want %d", c.query, len(d.Spans), c.want)
		}
		for _, s := range d.Spans {
			if q := c.query; q != "" && s.Session == "" {
				t.Fatalf("GET /trace%s returned unlabeled span %+v", c.query, s)
			}
		}
	}
}

func TestHandlerBadParams(t *testing.T) {
	Disable()
	t.Cleanup(Disable)
	Enable("badproc", 16)
	sp := Root("x")
	sp.End()

	for _, q := range []string{
		"?limit=xyz",
		"?limit=0",
		"?limit=-4",
		"?trace=not-hex",
		"?trace=123zz",
		"?session=s&limit=nope",
	} {
		code, _ := getTrace(t, q)
		if code != 400 {
			t.Fatalf("GET /trace%s = %d, want 400", q, code)
		}
	}

	// A well-formed trace id that matches nothing is an empty result, not
	// an error.
	code, d := getTrace(t, "?trace=00000000000000ff")
	if code != 200 || len(d.Spans) != 0 {
		t.Fatalf("unmatched trace id: code=%d spans=%d, want 200/0", code, len(d.Spans))
	}
}

// TestAppendJSONStringReadsBack holds the hand-rolled string writer to
// encoding/json: whatever bytes go in, json.Unmarshal accepts the literal and
// returns the string, each byte that is not UTF-8 replaced by U+FFFD.
func TestAppendJSONStringReadsBack(t *testing.T) {
	cases := []string{"", "plain", `q"b\`, "\a\b\f\n\r\t\v", "é 日本   \U0001F600", "a\xc3", "\xed\xa0\x80", "�"}
	for b := 0; b < 256; b++ {
		cases = append(cases, "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		lit := AppendJSONString([]byte("k:"), s)
		var got string
		if err := json.Unmarshal(lit[2:], &got); err != nil || string(lit[:2]) != "k:" {
			t.Errorf("%q rendered as %s: %v", s, lit, err)
		} else if want := string([]rune(s)); got != want {
			t.Errorf("%q read back as %q, want %q", s, got, want)
		}
	}
}
