// Package message defines the wire-level vocabulary of the negotiation: the
// announcements a Utility Agent sends, the bids Customer Agents return, the
// awards closing a negotiation, and the information exchanges with Producer
// Agents.
//
// An Envelope holds its payload in one of two forms. An envelope NewEnvelope
// built carries the payload value it validated and no bytes: Decode returns
// that value without parsing, so a table broadcast on the in-process bus
// reaches N agents as one shared value, and nothing in process marshals JSON.
// Body, the payload's JSON, is the wire form: a transport writes the carried
// payload's JSON straight into the frame it is building (binary.go). That is
// safe because Validate is the encode contract: a payload of this package
// that Validate accepts is one json.Marshal encodes.
//
// Reading a frame is decoding it, once, where it lands. The four kinds a
// reward-table session sends — CutDownBid, Award, SessionEnd, RewardTable —
// are parsed by UnmarshalBinary straight from the read buffer in the JSON
// json.Marshal writes (schema.go) and validated, and the envelope comes off
// the wire carrying its payload with no Body, like one NewEnvelope built: one
// allocation for a bid or an award, two for a session end or a table, none
// for Decode after it (6, 7 and 14 through encoding/json). Any other spelling
// of their JSON, a value Validate refuses, and the other fifteen kinds keep
// the Body a wire delivered (or a literal was given), which Decode parses —
// those fifteen through encoding/json always.
//
// That sharing makes a rule of what used to be a copy: a payload handed to
// NewEnvelope (or Runtime.Send) is immutable from then on, as is everything
// it references — RewardTable.Entries, MeterBatch.Readings, ReplBatch.Frames,
// an ObsBatch's slices — and so is what Decode returns. A producer that
// reuses a buffer copies it into the payload first; a receiver that wants to
// change what it was sent copies it out.
//
// The three announcement payloads correspond one-to-one to the paper's three
// methods (Section 3.2): OfferTerms, BidRequest and RewardTable.
package message

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"loadbalance/internal/units"
)

// Kind tags the payload type carried by an Envelope.
type Kind string

// Message kinds.
const (
	KindOffer       Kind = "offer"        // take-it-or-leave-it offer (3.2.1)
	KindBidRequest  Kind = "bid_request"  // request for bids (3.2.2)
	KindRewardTable Kind = "reward_table" // announce reward tables (3.2.3)
	KindOfferReply  Kind = "offer_reply"  // yes/no answer to an offer
	KindEnergyBid   Kind = "energy_bid"   // ymin bid in the RFB method
	KindCutDownBid  Kind = "cutdown_bid"  // chosen cut-down in the RT method
	KindAward       Kind = "award"        // UA accepts bids / ends session
	KindInfoRequest Kind = "info_request" // UA asks producer/world for info
	KindInfoReply   Kind = "info_reply"   // answer to an info request
	KindSessionEnd  Kind = "session_end"  // UA terminates a negotiation
	KindMeterBatch  Kind = "meter_batch"  // batched live consumption readings

	// Replication kinds: the WAL-streaming conversation between a primary
	// grid head and its hot standbys (internal/replica).
	KindReplSubscribe Kind = "repl_subscribe" // standby → primary: follow the journal
	KindReplBatch     Kind = "repl_batch"     // primary → standby: raw journal frames
	KindReplAck       Kind = "repl_ack"       // standby → primary: applied position
	KindReplSnapshot  Kind = "repl_snapshot"  // primary → standby: snapshot bootstrap
	KindReplHeartbeat Kind = "repl_heartbeat" // primary → standby: liveness + head position

	// Observability-plane kinds: workers, standbys and serve replicas
	// streaming their metric/log/span state to the fleet root
	// (internal/obsplane).
	KindObsSubscribe Kind = "obs_subscribe" // process → root: identity + subscribed log level
	KindObsBatch     Kind = "obs_batch"     // process → root: metric samples, log events, spans
	KindObsAck       Kind = "obs_ack"       // root → process: highest batch applied
)

// Validation errors.
var (
	ErrEmptyField  = errors.New("message: required field is empty")
	ErrBadFraction = errors.New("message: fraction out of range")
	ErrBadValue    = errors.New("message: value must be finite and non-negative")
	ErrBadInterval = errors.New("message: interval end must be after start")
	ErrUnknownKind = errors.New("message: unknown kind")
	ErrEmptyTable  = errors.New("message: reward table has no entries")
	ErrTableOrder  = errors.New("message: reward table cut-downs must be strictly increasing")
)

// Payload is implemented by every message body.
type Payload interface {
	Kind() Kind
	Validate() error
}

// Window is the JSON-friendly form of a units.Interval.
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// FromInterval converts a units.Interval.
func FromInterval(iv units.Interval) Window {
	return Window{Start: iv.Start, End: iv.End}
}

// Interval converts back to a units.Interval.
func (w Window) Interval() (units.Interval, error) {
	return units.NewInterval(w.Start, w.End)
}

// validate reports whether the window is well-formed and has a JSON form.
func (w Window) validate() error {
	for _, t := range [...]time.Time{w.Start, w.End} {
		if !exactRFC3339(t) {
			return fmt.Errorf("%w: %v has no exact RFC 3339 form", ErrBadValue, t)
		}
	}
	if !w.End.After(w.Start) {
		return ErrBadInterval
	}
	return nil
}

// exactRFC3339 reports whether t's JSON is t: a year of four digits and a
// zone offset in whole minutes under a day. time.Time.MarshalJSON refuses
// any other year or a longer offset, and drops an offset's seconds, which
// moves the instant the JSON names.
func exactRFC3339(t time.Time) bool {
	_, offset := t.Zone()
	return t.Year() >= 0 && t.Year() <= 9999 && offset > -24*60*60 && offset < 24*60*60 && offset%60 == 0
}

// finite reports whether every value is a number JSON can write.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// OfferTerms is the one-shot offer of Section 3.2.1: stay below
// XMax × Allowance during the window and pay LowPrice for that energy;
// exceed it and pay HighPrice for the excess. Declining means NormalPrice.
type OfferTerms struct {
	Window       Window  `json:"window"`
	XMax         float64 `json:"xMax"` // fraction of allowance, in (0,1]
	AllowanceKWh float64 `json:"allowanceKWh"`
	LowPrice     float64 `json:"lowPrice"`
	NormalPrice  float64 `json:"normalPrice"`
	HighPrice    float64 `json:"highPrice"`
}

// Kind implements Payload.
func (OfferTerms) Kind() Kind { return KindOffer }

// Validate implements Payload.
func (o OfferTerms) Validate() error {
	if err := o.Window.validate(); err != nil {
		return err
	}
	if !(o.XMax > 0 && o.XMax <= 1) {
		return fmt.Errorf("%w: xMax %v", ErrBadFraction, o.XMax)
	}
	for _, v := range []float64{o.AllowanceKWh, o.LowPrice, o.NormalPrice, o.HighPrice} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %v", ErrBadValue, v)
		}
	}
	if !(o.LowPrice <= o.NormalPrice && o.NormalPrice <= o.HighPrice) {
		return fmt.Errorf("%w: prices must satisfy low <= normal <= high", ErrBadValue)
	}
	return nil
}

// BidRequest asks every Customer Agent how much energy it really needs
// (Section 3.2.2). Round counts from 1; later rounds ask customers to stand
// still or step forward.
type BidRequest struct {
	Window Window `json:"window"`
	Round  int    `json:"round"`
	// LowPrice/HighPrice communicate the price regime for awarded bids.
	LowPrice    float64 `json:"lowPrice"`
	NormalPrice float64 `json:"normalPrice"`
	HighPrice   float64 `json:"highPrice"`
}

// Kind implements Payload.
func (BidRequest) Kind() Kind { return KindBidRequest }

// Validate implements Payload.
func (r BidRequest) Validate() error {
	if err := r.Window.validate(); err != nil {
		return err
	}
	if r.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, r.Round)
	}
	if !finite(r.LowPrice, r.NormalPrice, r.HighPrice) {
		return fmt.Errorf("%w: prices %v, %v, %v", ErrBadValue, r.LowPrice, r.NormalPrice, r.HighPrice)
	}
	if !(r.LowPrice <= r.NormalPrice && r.NormalPrice <= r.HighPrice) {
		return fmt.Errorf("%w: prices must satisfy low <= normal <= high", ErrBadValue)
	}
	return nil
}

// RewardEntry is one row of a reward table: save CutDown × allowed use
// during the window and receive Reward.
type RewardEntry struct {
	CutDown float64 `json:"cutDown"`
	Reward  float64 `json:"reward"`
}

// RewardTable is the announcement of Section 3.2.3.
type RewardTable struct {
	Window  Window        `json:"window"`
	Round   int           `json:"round"`
	Entries []RewardEntry `json:"entries"`
}

// Kind implements Payload.
func (RewardTable) Kind() Kind { return KindRewardTable }

// Validate implements Payload.
func (t RewardTable) Validate() error {
	if err := t.Window.validate(); err != nil {
		return err
	}
	if t.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, t.Round)
	}
	if len(t.Entries) == 0 {
		return ErrEmptyTable
	}
	prev := -1.0
	for _, e := range t.Entries {
		if e.CutDown < 0 || e.CutDown > 1 || math.IsNaN(e.CutDown) {
			return fmt.Errorf("%w: cutDown %v", ErrBadFraction, e.CutDown)
		}
		if e.Reward < 0 || math.IsNaN(e.Reward) || math.IsInf(e.Reward, 0) {
			return fmt.Errorf("%w: reward %v", ErrBadValue, e.Reward)
		}
		if e.CutDown <= prev {
			return ErrTableOrder
		}
		prev = e.CutDown
	}
	return nil
}

// RewardFor returns the reward offered at exactly the given cut-down level.
func (t RewardTable) RewardFor(cutDown float64) (float64, bool) {
	for _, e := range t.Entries {
		if e.CutDown == cutDown {
			return e.Reward, true
		}
	}
	return 0, false
}

// OfferReply answers an Offer announcement: yes or no (Section 3.2.1:
// "Customer Agents may only answer 'yes' or 'no'").
type OfferReply struct {
	Round  int  `json:"round"`
	Accept bool `json:"accept"`
}

// Kind implements Payload.
func (OfferReply) Kind() Kind { return KindOfferReply }

// Validate implements Payload.
func (r OfferReply) Validate() error {
	if r.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, r.Round)
	}
	return nil
}

// EnergyBid states how much energy the customer really needs when a reward
// is promised (ymin, Section 3.2.2).
type EnergyBid struct {
	Round   int     `json:"round"`
	YMinKWh float64 `json:"yMinKWh"`
}

// Kind implements Payload.
func (EnergyBid) Kind() Kind { return KindEnergyBid }

// Validate implements Payload.
func (b EnergyBid) Validate() error {
	if b.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, b.Round)
	}
	if b.YMinKWh < 0 || math.IsNaN(b.YMinKWh) || math.IsInf(b.YMinKWh, 0) {
		return fmt.Errorf("%w: yMin %v", ErrBadValue, b.YMinKWh)
	}
	return nil
}

// CutDownBid is the customer's answer to a reward table: "prepared to make a
// cut-down x during interval I" (Section 3.2.3). CutDown 0 means no saving.
type CutDownBid struct {
	Round   int     `json:"round"`
	CutDown float64 `json:"cutDown"`
}

// Kind implements Payload.
func (CutDownBid) Kind() Kind { return KindCutDownBid }

// Validate implements Payload.
func (b CutDownBid) Validate() error {
	if b.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, b.Round)
	}
	if b.CutDown < 0 || b.CutDown > 1 || math.IsNaN(b.CutDown) {
		return fmt.Errorf("%w: cutDown %v", ErrBadFraction, b.CutDown)
	}
	return nil
}

// Award confirms to a customer that its bid has been accepted, carrying the
// agreed cut-down and reward.
type Award struct {
	Round   int     `json:"round"`
	CutDown float64 `json:"cutDown"`
	Reward  float64 `json:"reward"`
}

// Kind implements Payload.
func (Award) Kind() Kind { return KindAward }

// Validate implements Payload.
func (a Award) Validate() error {
	if a.Round < 1 {
		return fmt.Errorf("%w: round %d", ErrBadValue, a.Round)
	}
	if a.CutDown < 0 || a.CutDown > 1 || math.IsNaN(a.CutDown) {
		return fmt.Errorf("%w: cutDown %v", ErrBadFraction, a.CutDown)
	}
	if a.Reward < 0 || math.IsNaN(a.Reward) || math.IsInf(a.Reward, 0) {
		return fmt.Errorf("%w: reward %v", ErrBadValue, a.Reward)
	}
	return nil
}

// InfoRequest asks an information-providing agent (Producer Agent, External
// World) a named question about a window.
type InfoRequest struct {
	Topic  string `json:"topic"`
	Window Window `json:"window"`
}

// Kind implements Payload.
func (InfoRequest) Kind() Kind { return KindInfoRequest }

// Validate implements Payload.
func (r InfoRequest) Validate() error {
	if r.Topic == "" {
		return fmt.Errorf("%w: topic", ErrEmptyField)
	}
	return r.Window.validate()
}

// InfoReply answers an InfoRequest with named numeric values.
type InfoReply struct {
	Topic  string             `json:"topic"`
	Values map[string]float64 `json:"values"`
}

// Kind implements Payload.
func (InfoReply) Kind() Kind { return KindInfoReply }

// Validate implements Payload.
func (r InfoReply) Validate() error {
	if r.Topic == "" {
		return fmt.Errorf("%w: topic", ErrEmptyField)
	}
	for k, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s=%v", ErrBadValue, k, v)
		}
	}
	return nil
}

// SessionEnd tells customers the negotiation is over. Reason is free text
// ("converged", "max reward reached", "aborted").
type SessionEnd struct {
	Round  int    `json:"round"`
	Reason string `json:"reason"`
}

// Kind implements Payload.
func (SessionEnd) Kind() Kind { return KindSessionEnd }

// Validate implements Payload.
func (e SessionEnd) Validate() error {
	if e.Round < 0 {
		return fmt.Errorf("%w: round %d", ErrBadValue, e.Round)
	}
	if e.Reason == "" {
		return fmt.Errorf("%w: reason", ErrEmptyField)
	}
	return nil
}

// MeterReading is one customer's measured consumption during one live tick.
// Ticks count from 0 inside the operating window; KWh is the energy actually
// consumed during the tick.
type MeterReading struct {
	Customer string  `json:"customer"`
	Tick     int     `json:"tick"`
	KWh      float64 `json:"kWh"`
}

// validate checks a single reading.
func (r MeterReading) validate() error {
	if r.Customer == "" {
		return fmt.Errorf("%w: customer", ErrEmptyField)
	}
	if r.Tick < 0 {
		return fmt.Errorf("%w: tick %d", ErrBadValue, r.Tick)
	}
	if r.KWh < 0 || math.IsNaN(r.KWh) || math.IsInf(r.KWh, 0) {
		return fmt.Errorf("%w: kWh %v", ErrBadValue, r.KWh)
	}
	return nil
}

// MeterBatch carries a compact batch of live meter readings to a telemetry
// collector. Batching keeps the reading rate the bus must sustain decoupled
// from the envelope rate (one envelope per fleet chunk, not per customer).
type MeterBatch struct {
	Tick     int            `json:"tick"`
	Readings []MeterReading `json:"readings"`
}

// Kind implements Payload.
func (MeterBatch) Kind() Kind { return KindMeterBatch }

// Validate implements Payload.
func (b MeterBatch) Validate() error {
	if b.Tick < 0 {
		return fmt.Errorf("%w: tick %d", ErrBadValue, b.Tick)
	}
	if len(b.Readings) == 0 {
		return fmt.Errorf("%w: readings", ErrEmptyField)
	}
	for _, r := range b.Readings {
		if err := r.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ReplSubscribe asks a primary to stream its journal to the sending standby,
// starting after FromSeq (0 = from the journal's beginning). A primary whose
// journal no longer reaches back to FromSeq answers with a ReplSnapshot
// bootstrap instead of a record batch.
type ReplSubscribe struct {
	// Replica is the subscribing standby's id — also the promotion tiebreak
	// key (lowest id wins).
	Replica string `json:"replica"`
	// FromSeq is the standby's last applied journal sequence number.
	FromSeq uint64 `json:"fromSeq"`
}

// Kind implements Payload.
func (ReplSubscribe) Kind() Kind { return KindReplSubscribe }

// Validate implements Payload.
func (s ReplSubscribe) Validate() error {
	if s.Replica == "" {
		return fmt.Errorf("%w: replica", ErrEmptyField)
	}
	return nil
}

// ReplBatch carries a contiguous run of raw journal record frames (kind byte,
// length-prefixed body, CRC32C trailer — the store's on-disk framing,
// verbatim). The checksums travel with the frames, so a standby verifies the
// primary's bytes end to end before persisting them unchanged.
type ReplBatch struct {
	// FirstSeq is the journal sequence number of the first frame.
	FirstSeq uint64 `json:"firstSeq"`
	// Count is the number of whole frames in Frames.
	Count int `json:"count"`
	// Frames holds the raw frames back to back.
	Frames []byte `json:"frames"`
}

// Kind implements Payload.
func (ReplBatch) Kind() Kind { return KindReplBatch }

// Validate implements Payload.
func (b ReplBatch) Validate() error {
	if b.FirstSeq == 0 {
		return fmt.Errorf("%w: firstSeq 0 (journal sequences count from 1)", ErrBadValue)
	}
	if b.Count < 1 {
		return fmt.Errorf("%w: batch of %d frames", ErrBadValue, b.Count)
	}
	if len(b.Frames) == 0 {
		return fmt.Errorf("%w: frames", ErrEmptyField)
	}
	return nil
}

// ReplAck reports how far a standby has applied the stream. The primary uses
// it for lag accounting and flow control, never for correctness: the journal
// itself is the source of truth.
type ReplAck struct {
	Replica    string `json:"replica"`
	AppliedSeq uint64 `json:"appliedSeq"`
}

// Kind implements Payload.
func (ReplAck) Kind() Kind { return KindReplAck }

// Validate implements Payload.
func (a ReplAck) Validate() error {
	if a.Replica == "" {
		return fmt.Errorf("%w: replica", ErrEmptyField)
	}
	return nil
}

// ReplSnapshot bootstraps a standby that subscribed below the primary's
// pruned journal head: the full application state at journal position Seq.
// The stream continues with frames from Seq+1.
type ReplSnapshot struct {
	Seq  uint64 `json:"seq"`
	Blob []byte `json:"blob"`
}

// Kind implements Payload.
func (ReplSnapshot) Kind() Kind { return KindReplSnapshot }

// Validate implements Payload.
func (s ReplSnapshot) Validate() error {
	if s.Seq == 0 {
		return fmt.Errorf("%w: snapshot at position 0", ErrBadValue)
	}
	if len(s.Blob) == 0 {
		return fmt.Errorf("%w: blob", ErrEmptyField)
	}
	return nil
}

// ReplHeartbeat keeps the stream's liveness observable while the journal is
// idle: the primary's head position, sent on a fixed cadence. A standby that
// misses heartbeats past its failover timeout declares the primary dead.
type ReplHeartbeat struct {
	LastSeq uint64 `json:"lastSeq"`
}

// Kind implements Payload.
func (ReplHeartbeat) Kind() Kind { return KindReplHeartbeat }

// Validate implements Payload.
func (ReplHeartbeat) Validate() error { return nil }

// ObsSubscribe announces a process to the fleet root's observability hub:
// its identity (stamped on every merged record the root serves) and the
// minimum log level it will stream. Re-subscribing after a reconnect is
// idempotent — the root replaces the identity and acks its last applied
// batch so the emitter can trim its resend buffer.
type ObsSubscribe struct {
	Proc string `json:"proc"` // process label, e.g. "gridd-cc-003"
	Role string `json:"role"` // "worker" | "standby" | "serve" | "live" | ...
	Addr string `json:"addr,omitempty"`
	// MinLevel is the health log level name the emitter streams from
	// ("debug".."error"); informational — filtering happens sender-side.
	MinLevel string `json:"minLevel,omitempty"`
}

// Kind implements Payload.
func (ObsSubscribe) Kind() Kind { return KindObsSubscribe }

// Validate implements Payload.
func (s ObsSubscribe) Validate() error {
	if s.Proc == "" {
		return fmt.Errorf("%w: proc", ErrEmptyField)
	}
	if s.Role == "" {
		return fmt.Errorf("%w: role", ErrEmptyField)
	}
	return nil
}

// ObsMetricSample is one rendered metric series: the Prometheus exposition
// name with its labels, e.g. `grid_shard_load_kwh{shard="2"}`, and the
// latest value. The root re-labels each sample with the sending process.
type ObsMetricSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// ObsLogEvent is one structured health log event in transit: the logger's
// ring entry with its fields pre-rendered to a JSON object.
type ObsLogEvent struct {
	TsUs      int64           `json:"tsUs"`
	Level     string          `json:"level"`
	Component string          `json:"component"`
	Msg       string          `json:"msg"`
	Fields    json.RawMessage `json:"fields,omitempty"`
}

// ObsSpan is one completed trace span in transit — the trace ring's
// rendered record shape (hex ids), so the root can stitch cross-process
// trees without re-deriving anything. The root stamps the sender's proc
// label on each span it merges.
type ObsSpan struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Agent   string `json:"agent,omitempty"`
	Session string `json:"session,omitempty"`
	Shard   string `json:"shard,omitempty"`
	StartUs int64  `json:"startUs"`
	DurUs   int64  `json:"durUs"`
}

// ObsBatch carries one flush of a process's observability state. Batches are
// sequenced per connection-lifetime and resent until acked, so a root
// restart loses at most what the emitter's bounded resend buffer had to
// shed (the Missed counters account for that shedding explicitly).
type ObsBatch struct {
	Seq     uint64 `json:"seq"`
	Closing bool   `json:"closing,omitempty"` // final flush before a clean exit

	Metrics []ObsMetricSample `json:"metrics,omitempty"`
	Logs    []ObsLogEvent     `json:"logs,omitempty"`
	Spans   []ObsSpan         `json:"spans,omitempty"`

	// MissedLogs/MissedSpans count ring entries that wrapped (or were shed
	// under backpressure) before this flush could drain them.
	MissedLogs  uint64 `json:"missedLogs,omitempty"`
	MissedSpans uint64 `json:"missedSpans,omitempty"`
}

// Kind implements Payload.
func (ObsBatch) Kind() Kind { return KindObsBatch }

// Validate implements Payload. An otherwise-empty batch is a keepalive —
// it still advances the root's silence gauge.
func (b ObsBatch) Validate() error {
	if b.Seq == 0 {
		return fmt.Errorf("%w: seq 0 (batch sequences count from 1)", ErrBadValue)
	}
	for _, m := range b.Metrics {
		if !finite(m.Value) {
			return fmt.Errorf("%w: metric %s = %v", ErrBadValue, m.Name, m.Value)
		}
	}
	for _, l := range b.Logs {
		if len(l.Fields) > 0 && !json.Valid(l.Fields) {
			return fmt.Errorf("%w: log fields %q are not JSON", ErrBadValue, l.Fields)
		}
	}
	return nil
}

// ObsAck reports the highest batch the root has merged. The emitter drops
// acked batches from its resend buffer; correctness never depends on it —
// every surface the root serves is explicitly lossy-but-accounted.
type ObsAck struct {
	Seq uint64 `json:"seq"`
}

// Kind implements Payload.
func (ObsAck) Kind() Kind { return KindObsAck }

// Validate implements Payload.
func (a ObsAck) Validate() error {
	if a.Seq == 0 {
		return fmt.Errorf("%w: ack of seq 0", ErrBadValue)
	}
	return nil
}

// Envelope wraps a payload with routing metadata.
type Envelope struct {
	From    string `json:"from"`
	To      string `json:"to"` // "" means broadcast
	Session string `json:"session"`
	Kind    Kind   `json:"kind"`
	// Body is the payload's JSON as a wire carries it. NewEnvelope leaves it
	// nil: the envelope carries the payload value, and a transport writes
	// that value's JSON where Body goes in its frame (AppendFrame). It is set
	// on an envelope read off a wire whose body UnmarshalBinary did not decode
	// in place, by WithBody, and by whoever assigns it — and a Body that is
	// set is what the envelope says, over any payload carried beside it.
	Body json.RawMessage `json:"body"`

	// TraceID/SpanID carry the distributed-tracing context across process
	// boundaries (internal/trace). Zero means untraced; the fields are
	// omitted from both codecs so untraced envelopes stay byte-identical
	// to the pre-tracing wire format.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`

	// payload is the validated value the envelope carries, and bodyStart the
	// first byte of the Body it is the JSON of, nil while there is none: see
	// carry and carried.
	payload   Payload
	bodyStart *byte
}

// Traced reports whether the envelope carries a trace context.
func (e Envelope) Traced() bool { return e.TraceID != 0 }

// NewEnvelope validates the payload and wraps it. A payload of this package's
// value types is carried as it is, with no Body: p — every slice and map it
// reaches — must not be written again. Any other payload (a pointer, which
// would share the sender's variable; a type from elsewhere, whose Validate
// this package does not vouch for) is marshalled now and reaches receivers
// through its Body, as the value type Decode parses it into.
func NewEnvelope(from, to, session string, p Payload) (Envelope, error) {
	if from == "" {
		return Envelope{}, fmt.Errorf("%w: from", ErrEmptyField)
	}
	if session == "" {
		return Envelope{}, fmt.Errorf("%w: session", ErrEmptyField)
	}
	if err := p.Validate(); err != nil {
		return Envelope{}, err
	}
	e := Envelope{From: from, To: to, Session: session, Kind: p.Kind()}
	if carriable(p) {
		e.payload = p
		return e, nil
	}
	body, err := json.Marshal(p)
	if err != nil {
		return Envelope{}, fmt.Errorf("message: marshal body: %w", err)
	}
	e.Body = body
	return e, nil
}

// carriable reports whether p is one of the package's payload values, each
// of whose Validate refuses whatever json.Marshal would
// (TestValidateRefusesWhatDoesNotEncode), so that writing its JSON later, in
// a transport's frame, cannot fail where NewEnvelope did not.
func carriable(p Payload) bool {
	switch p.(type) {
	case OfferTerms, BidRequest, RewardTable, OfferReply, EnergyBid, CutDownBid, Award,
		InfoRequest, InfoReply, SessionEnd, MeterBatch,
		ReplSubscribe, ReplBatch, ReplAck, ReplSnapshot, ReplHeartbeat,
		ObsSubscribe, ObsBatch, ObsAck:
		return true
	}
	return false
}

// lazy reports whether the envelope's JSON is yet to be written: NewEnvelope
// built it with a payload and no Body, and no Body has been set since. (One
// whose Body was removed has an empty Body, as a wire would say.)
func (e Envelope) lazy() bool { return e.Body == nil && e.payload != nil && e.bodyStart == nil }

// WithBody returns the envelope with its Body written, still carrying its
// payload: the form for a bus that hands envelopes on as they are rather than
// writing each into a frame of its own.
func (e Envelope) WithBody() (Envelope, error) {
	if !e.lazy() {
		return e, nil
	}
	b := bodyBufs.Get().(*bodyBuf)
	defer b.put()
	body, err := b.encode(e.payload)
	if err != nil {
		return Envelope{}, err
	}
	e.Body = bytes.Clone(body)
	return e.carry(e.payload), nil
}

// carry attaches the validated payload Body is the JSON of. Body is clipped
// to its length so that carried can tell it from any reslice of itself.
func (e Envelope) carry(p Payload) Envelope {
	e.Body = e.Body[:len(e.Body):len(e.Body)]
	e.payload, e.bodyStart = p, &e.Body[0]
	return e
}

// carried returns the attached payload while Kind and Body are still the
// ones it was attached to — no Body, for an envelope NewEnvelope built; an
// envelope edited since falls back to its Body.
func (e Envelope) carried() (Payload, bool) {
	if e.payload == nil || e.payload.Kind() != e.Kind {
		return nil, false
	}
	if e.bodyStart == nil {
		return e.payload, e.Body == nil
	}
	return e.payload, len(e.Body) != 0 && len(e.Body) == cap(e.Body) && &e.Body[0] == e.bodyStart
}

// SameSend reports whether e and o are one envelope addressed to two
// recipients: every field but To equal, and Body and the carried payload the
// very same slice and value, not equal copies — so no byte is compared. A
// mailbox that holds one send to many recipients as one entry asks it.
func (e Envelope) SameSend(o Envelope) bool {
	return e.From == o.From && e.Session == o.Session && e.Kind == o.Kind &&
		e.TraceID == o.TraceID && e.SpanID == o.SpanID &&
		unsafe.SliceData(e.Body) == unsafe.SliceData(o.Body) &&
		len(e.Body) == len(o.Body) && cap(e.Body) == cap(o.Body) &&
		e.bodyStart == o.bodyStart && samePayload(e.payload, o.payload)
}

// samePayload reports whether a and b are one boxed value: the same dynamic
// type and the same data word. It reads neither value, which == would, and
// panic on a payload that holds a slice.
func samePayload(a, b Payload) bool {
	type iface struct{ tab, data unsafe.Pointer }
	return *(*iface)(unsafe.Pointer(&a)) == *(*iface)(unsafe.Pointer(&b))
}

// decoders parses and validates a Body for every kind the package declares.
// The four kinds of a reward-table session have schema decoders (schema.go):
// the decode UnmarshalBinary runs in place, then the decodeAs the others use
// for any body it does not take.
var decoders = map[Kind]func(body []byte) (Payload, error){
	KindOffer:         decodeAs[OfferTerms],
	KindBidRequest:    decodeAs[BidRequest],
	KindRewardTable:   schemaDecoder[RewardTable](),
	KindOfferReply:    decodeAs[OfferReply],
	KindEnergyBid:     decodeAs[EnergyBid],
	KindCutDownBid:    schemaDecoder[CutDownBid](),
	KindAward:         schemaDecoder[Award](),
	KindInfoRequest:   decodeAs[InfoRequest],
	KindInfoReply:     decodeAs[InfoReply],
	KindSessionEnd:    schemaDecoder[SessionEnd](),
	KindMeterBatch:    decodeAs[MeterBatch],
	KindReplSubscribe: decodeAs[ReplSubscribe],
	KindReplBatch:     decodeAs[ReplBatch],
	KindReplAck:       decodeAs[ReplAck],
	KindReplSnapshot:  decodeAs[ReplSnapshot],
	KindReplHeartbeat: decodeAs[ReplHeartbeat],
	KindObsSubscribe:  decodeAs[ObsSubscribe],
	KindObsBatch:      decodeAs[ObsBatch],
	KindObsAck:        decodeAs[ObsAck],
}

func decodeAs[T Payload](body []byte) (Payload, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("message: decode %s: %w", v.Kind(), err)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// Decode returns the validated payload: the one the envelope carries when it
// was built in this process, else Body parsed according to the kind tag. An
// envelope re-tagged since NewEnvelope built it is read as a wire would read
// it: its payload's JSON, parsed as the kind it now says.
func (e Envelope) Decode() (Payload, error) {
	if p, ok := e.carried(); ok {
		return p, nil
	}
	decode, ok := decoders[e.Kind]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, e.Kind)
	}
	if e.lazy() {
		var err error
		if e, err = e.WithBody(); err != nil {
			return nil, err
		}
	}
	return decode(e.Body)
}

// Validated decodes the envelope once and returns it carrying the payload,
// so a trust boundary that must check an inbound envelope hands the receiver
// the value it checked instead of bytes to parse again.
func (e Envelope) Validated() (Envelope, error) {
	if _, ok := e.carried(); ok {
		return e, nil
	}
	if e.lazy() { // re-tagged: it keeps the Body a wire would have carried
		var err error
		if e, err = e.WithBody(); err != nil {
			return Envelope{}, err
		}
	}
	p, err := e.Decode()
	if err != nil {
		return Envelope{}, err
	}
	return e.carry(p), nil
}
