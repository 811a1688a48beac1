package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"loadbalance/internal/message"
)

// Kind tags the payload type of a journal record, mirroring the envelope
// kinds of the message package: a one-byte discriminator ahead of an opaque
// body. Cold-path bodies are JSON documents (schemas evolve faster than the
// framing); the hot-path tick checkpoint uses a dedicated binary body.
type Kind byte

// Record kinds.
const (
	// KindScenario registers the grid being operated: the seeded inputs a
	// recovering process must present again for its journal to apply.
	KindScenario Kind = 0x01
	// KindTopology records the shard partition fronting the fleet.
	KindTopology Kind = 0x02
	// KindSession records one negotiation session's terminal outcome, the
	// awards it committed and the Utility Agent's trace, as the session engine
	// wrote it (Store.AppendSession).
	KindSession Kind = 0x03
	// KindTick is the meter-batch checkpoint: one closed live tick's
	// per-shard measured energies. The journal's hot path.
	KindTick Kind = 0x04
	// KindReneg records a deviation-triggered incremental re-negotiation
	// together with the tick checkpoint it fired on, in a single frame so a
	// torn write can never persist the measurement without the decision.
	KindReneg Kind = 0x05
	// KindAborted marks a session that was interrupted before any outcome
	// was committed; recovery must never replay it as half-committed.
	KindAborted Kind = 0x06
	// KindSeal marks a clean shutdown: everything before it is complete.
	KindSeal Kind = 0x07
	// KindPromote seals the divergence point of a promoted standby: every
	// record before it was replicated from the old primary; everything after
	// it was produced by this journal's owner as the new primary.
	KindPromote Kind = 0x08
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindScenario:
		return "scenario"
	case KindTopology:
		return "topology"
	case KindSession:
		return "session"
	case KindTick:
		return "tick"
	case KindReneg:
		return "reneg"
	case KindAborted:
		return "aborted"
	case KindSeal:
		return "seal"
	case KindPromote:
		return "promote"
	default:
		return fmt.Sprintf("kind(0x%02x)", byte(k))
	}
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the grid runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry: a kind tag and an opaque body.
type Record struct {
	Kind Kind
	Body []byte
}

// appendFrame appends the record's on-disk frame to dst:
//
//	kind (1 byte)
//	uvarint(len(body)) body   (the message codec's length-prefixed string)
//	crc32c (4 bytes, little-endian, over everything above)
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Kind))
	dst = message.AppendLenPrefixed(dst, r.Body)
	sum := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeFrame parses one frame from the head of data, returning the record
// and the bytes consumed. ErrTruncated reports a frame that ends mid-field
// (the crash-torn tail); ErrCorrupt a structurally complete frame whose
// checksum does not match. The record body aliases data, capped at its own
// length so an append to it cannot run into the bytes after it.
func decodeFrame(data []byte) (Record, int, error) {
	if len(data) == 0 {
		return Record{}, 0, ErrTruncated
	}
	body, rest, err := message.ReadLenPrefixed(data[1:])
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: record body", ErrTruncated)
	}
	if len(rest) < 4 {
		return Record{}, 0, fmt.Errorf("%w: record checksum", ErrTruncated)
	}
	framed := len(data) - len(rest)
	sum := crc32.Checksum(data[:framed], crcTable)
	if sum != binary.LittleEndian.Uint32(rest[:4]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch on %s record", ErrCorrupt, Kind(data[0]))
	}
	// A length in more bytes than appendFrame writes is no writer's frame:
	// every accepted frame is the one its record encodes to.
	if framed != 1+message.LenPrefixedSize(len(body)) {
		return Record{}, 0, fmt.Errorf("%w: overlong length on %s record", ErrCorrupt, Kind(data[0]))
	}
	return Record{Kind: Kind(data[0]), Body: body[:len(body):len(body)]}, framed + 4, nil
}

// AwardEntry is one customer's committed agreement inside a session record.
type AwardEntry struct {
	CutDown float64 `json:"cutDown"`
	Reward  float64 `json:"reward"`
}

// ScenarioInfo fingerprints the seeded inputs of the grid a journal belongs
// to. Recovery validates the running configuration against it: replaying a
// journal into a differently-parameterised grid would silently corrupt state.
type ScenarioInfo struct {
	SessionID      string  `json:"sessionId"`
	Customers      int     `json:"customers"`
	Shards         int     `json:"shards"`
	TicksPerWindow int     `json:"ticksPerWindow"`
	Seed           int64   `json:"seed"`
	Jitter         float64 `json:"jitter"`
}

// TopologyInfo records the shard partition (a membership change writes a new
// one; recovery applies the latest).
type TopologyInfo struct {
	Shards     int   `json:"shards"`
	Fleet      int   `json:"fleet"`
	ShardSizes []int `json:"shardSizes"`
}

// SessionOutcome is a negotiation session's terminal record: every bidder's
// final bid and the awards delivered (a bidder that was awarded nothing has a
// bid and no award). Result carries the Utility Agent's result as JSON — its
// per-round history, method, outcome, awards and overuse figures — so a
// resume replays the whole trace; Config optionally fingerprints the
// parameters the session ran under, so a resume can refuse to replay an
// outcome computed under different parameters.
type SessionOutcome struct {
	SessionID string                `json:"sessionId"`
	Outcome   string                `json:"outcome"`
	Rounds    int                   `json:"rounds"`
	Config    string                `json:"config,omitempty"`
	Bids      map[string]float64    `json:"bids,omitempty"`
	Awards    map[string]AwardEntry `json:"awards,omitempty"`
	Result    json.RawMessage       `json:"result,omitempty"`
}

// TickCheckpoint is one closed live tick: the per-shard measured energies
// plus the collector's reading/batch counts for the tick. Encoded in binary
// (bit-exact float64s, no JSON overhead) because it is appended every tick.
type TickCheckpoint struct {
	Tick     int
	Shard    []float64
	Readings int64
	Batches  int64
}

// RenegOutcome records one deviation-triggered incremental re-negotiation
// and the tick checkpoint it fired on.
type RenegOutcome struct {
	Checkpoint TickCheckpoint        `json:"checkpoint"`
	SessionSeq int                   `json:"sessionSeq"`
	SessionID  string                `json:"sessionId"`
	Shards     []int                 `json:"shards"`
	Members    int                   `json:"members"`
	Outcome    string                `json:"outcome"`
	Factors    map[int]float64       `json:"factors"`
	Bids       map[string]float64    `json:"bids"`
	Awards     map[string]AwardEntry `json:"awards"`
}

// AbortInfo marks a session interrupted before its outcome.
type AbortInfo struct {
	SessionID string `json:"sessionId"`
	Reason    string `json:"reason"`
}

// PromoteInfo records a standby's promotion to primary: the replica that
// promoted, the replicated journal position it diverged from, and why.
type PromoteInfo struct {
	Replica string `json:"replica"`
	FromSeq uint64 `json:"fromSeq"`
	Reason  string `json:"reason"`
}

// newJSONRecord marshals a cold-path body.
func newJSONRecord(k Kind, body any) (Record, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return Record{}, fmt.Errorf("store: marshal %s record: %w", k, err)
	}
	return Record{Kind: k, Body: b}, nil
}

// NewScenarioRecord builds a scenario-registration record.
func NewScenarioRecord(s ScenarioInfo) (Record, error) { return newJSONRecord(KindScenario, s) }

// NewTopologyRecord builds a membership/topology record.
func NewTopologyRecord(t TopologyInfo) (Record, error) { return newJSONRecord(KindTopology, t) }

// NewRenegRecord builds a re-negotiation record.
func NewRenegRecord(o RenegOutcome) (Record, error) { return newJSONRecord(KindReneg, o) }

// NewAbortRecord builds an aborted-session record.
func NewAbortRecord(a AbortInfo) (Record, error) { return newJSONRecord(KindAborted, a) }

// NewPromoteRecord builds a standby-promotion record.
func NewPromoteRecord(p PromoteInfo) (Record, error) { return newJSONRecord(KindPromote, p) }

// sealRecord is the clean-shutdown marker.
func sealRecord() Record { return Record{Kind: KindSeal} }

// AppendTickBody appends the binary encoding of a tick checkpoint:
//
//	uvarint(tick) uvarint(readings) uvarint(batches)
//	uvarint(len(shard)) then 8 little-endian bytes per shard (float64 bits)
func AppendTickBody(dst []byte, cp TickCheckpoint) []byte {
	dst = binary.AppendUvarint(dst, uint64(cp.Tick))
	dst = binary.AppendUvarint(dst, uint64(cp.Readings))
	dst = binary.AppendUvarint(dst, uint64(cp.Batches))
	dst = binary.AppendUvarint(dst, uint64(len(cp.Shard)))
	for _, v := range cp.Shard {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// NewTickRecord builds a meter-batch checkpoint record.
func NewTickRecord(cp TickCheckpoint) Record {
	return Record{Kind: KindTick, Body: AppendTickBody(nil, cp)}
}

// DecodeTickBody parses a binary tick checkpoint body.
func DecodeTickBody(body []byte) (TickCheckpoint, error) {
	var cp TickCheckpoint
	header := [3]uint64{}
	for i := range header {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return TickCheckpoint{}, fmt.Errorf("%w: tick checkpoint header", ErrCorrupt)
		}
		header[i] = v
		body = body[n:]
	}
	cp.Tick, cp.Readings, cp.Batches = int(header[0]), int64(header[1]), int64(header[2])
	shards, n := binary.Uvarint(body)
	if n <= 0 {
		return TickCheckpoint{}, fmt.Errorf("%w: tick checkpoint shard vector", ErrCorrupt)
	}
	body = body[n:]
	// Division, not multiplication: 8*shards could wrap for an absurd
	// declared count, and recovery must never panic on a crafted body.
	if uint64(len(body))%8 != 0 || shards != uint64(len(body))/8 {
		return TickCheckpoint{}, fmt.Errorf("%w: tick checkpoint shard vector", ErrCorrupt)
	}
	cp.Shard = make([]float64, shards)
	for i := range cp.Shard {
		cp.Shard[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return cp, nil
}

// DecodeScenario parses a scenario-registration record body.
func DecodeScenario(r Record) (ScenarioInfo, error) {
	var s ScenarioInfo
	return s, decodeJSON(r, KindScenario, &s)
}

// DecodeTopology parses a topology record body.
func DecodeTopology(r Record) (TopologyInfo, error) {
	var t TopologyInfo
	return t, decodeJSON(r, KindTopology, &t)
}

// DecodeSession parses a session-outcome record body.
func DecodeSession(r Record) (SessionOutcome, error) {
	var o SessionOutcome
	return o, decodeJSON(r, KindSession, &o)
}

// DecodeReneg parses a re-negotiation record body.
func DecodeReneg(r Record) (RenegOutcome, error) {
	var o RenegOutcome
	return o, decodeJSON(r, KindReneg, &o)
}

// DecodeAbort parses an aborted-session record body.
func DecodeAbort(r Record) (AbortInfo, error) {
	var a AbortInfo
	return a, decodeJSON(r, KindAborted, &a)
}

// DecodePromote parses a standby-promotion record body.
func DecodePromote(r Record) (PromoteInfo, error) {
	var p PromoteInfo
	return p, decodeJSON(r, KindPromote, &p)
}

// DecodeTick parses a tick-checkpoint record.
func DecodeTick(r Record) (TickCheckpoint, error) {
	if r.Kind != KindTick {
		return TickCheckpoint{}, fmt.Errorf("%w: decoding %s as tick", ErrCorrupt, r.Kind)
	}
	return DecodeTickBody(r.Body)
}

// decodeJSON unmarshals a cold-path body after checking the kind tag.
func decodeJSON(r Record, want Kind, into any) error {
	if r.Kind != want {
		return fmt.Errorf("%w: decoding %s as %s", ErrCorrupt, r.Kind, want)
	}
	if err := json.Unmarshal(r.Body, into); err != nil {
		return fmt.Errorf("%w: %s body: %v", ErrCorrupt, want, err)
	}
	return nil
}
