package message

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"loadbalance/internal/units"
)

func window() Window {
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	return Window{Start: start, End: start.Add(2 * time.Hour)}
}

func validTable() RewardTable {
	return RewardTable{
		Window: window(),
		Round:  1,
		Entries: []RewardEntry{
			{CutDown: 0, Reward: 0},
			{CutDown: 0.1, Reward: 4.25},
			{CutDown: 0.2, Reward: 8.5},
			{CutDown: 0.3, Reward: 12.75},
			{CutDown: 0.4, Reward: 17},
		},
	}
}

func TestWindowRoundTrip(t *testing.T) {
	iv, err := units.NewInterval(window().Start, window().End)
	if err != nil {
		t.Fatal(err)
	}
	w := FromInterval(iv)
	got, err := w.Interval()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(iv.Start) || !got.End.Equal(iv.End) {
		t.Fatalf("round trip = %v, want %v", got, iv)
	}
}

func TestOfferTermsValidate(t *testing.T) {
	valid := OfferTerms{Window: window(), XMax: 0.8, AllowanceKWh: 10, LowPrice: 1, NormalPrice: 2, HighPrice: 3}
	tests := []struct {
		name    string
		mutate  func(*OfferTerms)
		wantErr error
	}{
		{name: "valid", mutate: func(o *OfferTerms) {}},
		{name: "xmax zero", mutate: func(o *OfferTerms) { o.XMax = 0 }, wantErr: ErrBadFraction},
		{name: "xmax above one", mutate: func(o *OfferTerms) { o.XMax = 1.2 }, wantErr: ErrBadFraction},
		{name: "negative price", mutate: func(o *OfferTerms) { o.LowPrice = -1 }, wantErr: ErrBadValue},
		{name: "price order", mutate: func(o *OfferTerms) { o.LowPrice = 5 }, wantErr: ErrBadValue},
		{name: "bad window", mutate: func(o *OfferTerms) { o.Window.End = o.Window.Start }, wantErr: ErrBadInterval},
		{name: "nan allowance", mutate: func(o *OfferTerms) { o.AllowanceKWh = math.NaN() }, wantErr: ErrBadValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := valid
			tt.mutate(&o)
			if err := o.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBidRequestValidate(t *testing.T) {
	valid := BidRequest{Window: window(), Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request: %v", err)
	}
	bad := valid
	bad.Round = 0
	if err := bad.Validate(); !errors.Is(err, ErrBadValue) {
		t.Fatalf("round 0 error = %v", err)
	}
}

func TestRewardTableValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*RewardTable)
		wantErr error
	}{
		{name: "valid", mutate: func(t *RewardTable) {}},
		{name: "empty", mutate: func(t *RewardTable) { t.Entries = nil }, wantErr: ErrEmptyTable},
		{name: "unordered", mutate: func(t *RewardTable) { t.Entries[2].CutDown = 0.05 }, wantErr: ErrTableOrder},
		{name: "duplicate", mutate: func(t *RewardTable) { t.Entries[1].CutDown = 0 }, wantErr: ErrTableOrder},
		{name: "cutdown above 1", mutate: func(t *RewardTable) { t.Entries[4].CutDown = 1.4 }, wantErr: ErrBadFraction},
		{name: "negative reward", mutate: func(t *RewardTable) { t.Entries[3].Reward = -2 }, wantErr: ErrBadValue},
		{name: "round zero", mutate: func(t *RewardTable) { t.Round = 0 }, wantErr: ErrBadValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tab := validTable()
			tab.Entries = append([]RewardEntry(nil), validTable().Entries...)
			tt.mutate(&tab)
			if err := tab.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestRewardFor(t *testing.T) {
	tab := validTable()
	if r, ok := tab.RewardFor(0.4); !ok || r != 17 {
		t.Fatalf("RewardFor(0.4) = %v, %v", r, ok)
	}
	if _, ok := tab.RewardFor(0.55); ok {
		t.Fatal("RewardFor(0.55) should miss")
	}
}

func TestBidValidation(t *testing.T) {
	if err := (CutDownBid{Round: 1, CutDown: 0.4}).Validate(); err != nil {
		t.Fatalf("valid cutdown bid: %v", err)
	}
	if err := (CutDownBid{Round: 1, CutDown: 1.5}).Validate(); !errors.Is(err, ErrBadFraction) {
		t.Fatal("cutdown 1.5 should fail")
	}
	if err := (EnergyBid{Round: 1, YMinKWh: 5}).Validate(); err != nil {
		t.Fatalf("valid energy bid: %v", err)
	}
	if err := (EnergyBid{Round: 1, YMinKWh: -5}).Validate(); !errors.Is(err, ErrBadValue) {
		t.Fatal("negative ymin should fail")
	}
	if err := (OfferReply{Round: 0}).Validate(); !errors.Is(err, ErrBadValue) {
		t.Fatal("round 0 reply should fail")
	}
	if err := (Award{Round: 2, CutDown: 0.4, Reward: 24.8}).Validate(); err != nil {
		t.Fatalf("valid award: %v", err)
	}
	if err := (Award{Round: 2, CutDown: -0.1, Reward: 1}).Validate(); !errors.Is(err, ErrBadFraction) {
		t.Fatal("negative cutdown award should fail")
	}
}

func TestInfoValidation(t *testing.T) {
	if err := (InfoRequest{Topic: "production_capacity", Window: window()}).Validate(); err != nil {
		t.Fatalf("valid info request: %v", err)
	}
	if err := (InfoRequest{Window: window()}).Validate(); !errors.Is(err, ErrEmptyField) {
		t.Fatal("empty topic should fail")
	}
	if err := (InfoReply{Topic: "x", Values: map[string]float64{"capacity": 100}}).Validate(); err != nil {
		t.Fatalf("valid info reply: %v", err)
	}
	if err := (InfoReply{Topic: "x", Values: map[string]float64{"capacity": math.Inf(1)}}).Validate(); !errors.Is(err, ErrBadValue) {
		t.Fatal("inf value should fail")
	}
}

func TestSessionEndValidation(t *testing.T) {
	if err := (SessionEnd{Round: 3, Reason: "converged"}).Validate(); err != nil {
		t.Fatalf("valid session end: %v", err)
	}
	if err := (SessionEnd{Round: 3}).Validate(); !errors.Is(err, ErrEmptyField) {
		t.Fatal("missing reason should fail")
	}
}

func TestMeterBatchValidation(t *testing.T) {
	ok := MeterBatch{Tick: 2, Readings: []MeterReading{{Customer: "c1", Tick: 2, KWh: 1.5}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if err := (MeterBatch{Tick: 2}).Validate(); !errors.Is(err, ErrEmptyField) {
		t.Fatal("empty batch should fail")
	}
	if err := (MeterBatch{Tick: -1, Readings: ok.Readings}).Validate(); !errors.Is(err, ErrBadValue) {
		t.Fatal("negative batch tick should fail")
	}
	bad := []MeterReading{
		{Customer: "", Tick: 0, KWh: 1},
		{Customer: "c", Tick: -1, KWh: 1},
		{Customer: "c", Tick: 0, KWh: -1},
		{Customer: "c", Tick: 0, KWh: math.NaN()},
	}
	for i, r := range bad {
		if err := (MeterBatch{Readings: []MeterReading{r}}).Validate(); err == nil {
			t.Errorf("bad reading %d passed validation", i)
		}
	}
}

// TestValidateRefusesWhatDoesNotEncode holds Validate to the contract an
// envelope without a Body stands on: a payload Validate accepts is one whose
// JSON a transport can write later, into a frame, where nobody is left to
// hear that it could not — and whose JSON names the same value.
func TestValidateRefusesWhatDoesNotEncode(t *testing.T) {
	w := window()
	at := func(year int, zone *time.Location) Window {
		start := time.Date(year, 1, 20, 17, 0, 0, 0, zone)
		return Window{Start: start, End: start.Add(2 * time.Hour)}
	}
	entries := validTable().Entries
	for name, p := range map[string]Payload{
		"year 10000":                   RewardTable{Window: at(10000, time.UTC), Round: 1, Entries: entries},
		"year -1":                      BidRequest{Window: at(-1, time.UTC), Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		"a zone a day ahead":           InfoRequest{Topic: "capacity", Window: at(1998, time.FixedZone("", 24*60*60))},
		"log fields that are not JSON": ObsBatch{Seq: 1, Logs: []ObsLogEvent{{Level: "warn", Msg: "m", Fields: json.RawMessage(`{"agent":`)}}},
		"a NaN metric":                 ObsBatch{Seq: 1, Metrics: []ObsMetricSample{{Name: "x", Value: math.NaN()}}},
		"a NaN xMax":                   OfferTerms{Window: w, XMax: math.NaN(), AllowanceKWh: 10, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		"an infinite price":            BidRequest{Window: w, Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: math.Inf(1)},
	} {
		if _, err := json.Marshal(p); err == nil {
			t.Fatalf("%s: json.Marshal encodes it, so it is not a case of this test", name)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepts a payload json.Marshal refuses", name)
		}
	}

	// A zone offset with seconds encodes, as another instant: refused too.
	lmt := RewardTable{Window: at(1998, time.FixedZone("LMT", 19*60+32)), Round: 1, Entries: entries}
	if err := lmt.Validate(); err == nil {
		t.Error("Validate accepts a window whose JSON names another instant")
	}
	// The edges that do encode, exactly, stay valid.
	for name, p := range map[string]Payload{
		"year 0":                   InfoRequest{Topic: "capacity", Window: at(0, time.UTC)},
		"year 9999":                InfoRequest{Topic: "capacity", Window: Window{Start: time.Date(9999, 12, 31, 20, 0, 0, 0, time.UTC), End: time.Date(9999, 12, 31, 22, 0, 0, 0, time.UTC)}},
		"a zone 23:59 behind":      InfoRequest{Topic: "capacity", Window: at(1998, time.FixedZone("", -(23*60+59)*60))},
		"log fields that are JSON": ObsBatch{Seq: 1, Logs: []ObsLogEvent{{Fields: json.RawMessage(` {"agent": "c01"} `)}}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := json.Marshal(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// wireRoundTrip takes an envelope over one TCP hop: the binary codec, then the
// receiving server's trust-boundary check.
func wireRoundTrip(env Envelope) (Envelope, error) {
	data, err := env.MarshalBinary()
	if err != nil {
		return Envelope{}, err
	}
	back, err := UnmarshalBinary(data)
	if err != nil {
		return Envelope{}, err
	}
	return back.Validated()
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payloads := []Payload{
		OfferTerms{Window: window(), XMax: 0.8, AllowanceKWh: 10, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		BidRequest{Window: window(), Round: 2, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		validTable(),
		OfferReply{Round: 1, Accept: true},
		EnergyBid{Round: 2, YMinKWh: 7.5},
		CutDownBid{Round: 3, CutDown: 0.4},
		Award{Round: 3, CutDown: 0.4, Reward: 24.8},
		InfoRequest{Topic: "capacity", Window: window()},
		InfoReply{Topic: "capacity", Values: map[string]float64{"kwh": 100}},
		SessionEnd{Round: 3, Reason: "converged"},
	}
	for _, p := range payloads {
		t.Run(string(p.Kind()), func(t *testing.T) {
			env, err := NewEnvelope("ua", "c1", "s1", p)
			if err != nil {
				t.Fatalf("NewEnvelope: %v", err)
			}
			back, err := wireRoundTrip(env)
			if err != nil {
				t.Fatalf("wire round trip: %v", err)
			}
			if back.From != "ua" || back.To != "c1" || back.Session != "s1" || back.Kind != p.Kind() {
				t.Fatalf("envelope metadata = %+v", back)
			}
			decoded, err := back.Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if decoded.Kind() != p.Kind() {
				t.Fatalf("decoded kind = %v, want %v", decoded.Kind(), p.Kind())
			}
		})
	}
}

func TestEnvelopeDecodedValuesSurvive(t *testing.T) {
	env, err := NewEnvelope("ua", "", "s1", validTable())
	if err != nil {
		t.Fatal(err)
	}
	back, err := wireRoundTrip(env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := p.(RewardTable)
	if !ok {
		t.Fatalf("decoded type = %T, want RewardTable", p)
	}
	if r, ok := tab.RewardFor(0.4); !ok || r != 17 {
		t.Fatalf("decoded table lost data: %v %v", r, ok)
	}
}

func TestNewEnvelopeRejects(t *testing.T) {
	if _, err := NewEnvelope("", "c1", "s1", OfferReply{Round: 1}); !errors.Is(err, ErrEmptyField) {
		t.Fatal("empty from should fail")
	}
	if _, err := NewEnvelope("ua", "c1", "", OfferReply{Round: 1}); !errors.Is(err, ErrEmptyField) {
		t.Fatal("empty session should fail")
	}
	if _, err := NewEnvelope("ua", "c1", "s1", CutDownBid{Round: 0, CutDown: 0.2}); err == nil {
		t.Fatal("invalid payload should fail")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	env := Envelope{From: "x", Session: "s", Kind: Kind("bogus"), Body: []byte("{}")}
	if _, err := env.Decode(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("error = %v, want ErrUnknownKind", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("not an envelope")); err == nil {
		t.Fatal("garbage should fail")
	}
	// A well-formed envelope but an invalid body for the kind.
	env := Envelope{From: "ua", Session: "s", Kind: KindCutDownBid, Body: []byte(`{"round":0,"cutDown":2}`)}
	if _, err := wireRoundTrip(env); err == nil {
		t.Fatal("invalid body should fail validation on unmarshal")
	}
}

// Property: any structurally-valid cut-down bid survives a marshal round
// trip with its fields intact.
func TestCutDownBidRoundTripProperty(t *testing.T) {
	f := func(round uint8, cdRaw uint16) bool {
		bid := CutDownBid{Round: int(round%50) + 1, CutDown: float64(cdRaw%1001) / 1000}
		env, err := NewEnvelope("ua", "c1", "s", bid)
		if err != nil {
			return false
		}
		back, err := wireRoundTrip(env)
		if err != nil {
			return false
		}
		p, err := back.Decode()
		if err != nil {
			return false
		}
		got, ok := p.(CutDownBid)
		return ok && got == bid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
