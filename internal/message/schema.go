package message

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Schema decoders: the decoders entries of the four kinds a negotiation
// session is made of — CutDownBid, Award, SessionEnd and RewardTable, every
// body a reward-table session puts on a wire. A body of these kinds is,
// in the bytes json.Marshal writes, an object of known keys holding numbers,
// an escape-free string, or (the table) one nested object of two times and one
// array of two-number objects, with no whitespace anywhere. A kind's parser
// (parseCutDownBid, ...) reads exactly that grammar in place — no reflection,
// no token buffer — and allocates what the value keeps: SessionEnd's Reason
// and RewardTable's Entries. It runs where the body lands: UnmarshalBinary
// hands every body of these kinds to inPlace on the frame's read buffer, and
// an envelope whose body parses and validates leaves with the payload boxed
// and no Body at all. Its decoders entry runs inPlace on a Body that is still
// there — one inPlace did not take, or one set by hand.
//
// Everything else is not this file's business: a body with whitespace, an
// escape, an unknown, repeated or differently-cased key, a null, a number
// outside JSON's grammar or one strconv refuses, a time time.UnmarshalJSON
// refuses — any byte outside the grammar — is handed to decodeAs[T] unread,
// so what is accepted, what is refused with which error, and what value comes
// out are encoding/json's by construction. Numbers and times are converted by
// the calls encoding/json itself makes (strconv.ParseInt / ParseFloat on the
// literal, Time.UnmarshalJSON), so the bits agree too; FuzzFlatPayloadDecode
// holds both to that, and FuzzWireDecode holds a frame read through inPlace
// to what the decoders entry makes of its body.

var (
	cutDownBidKeys  = []string{"round", "cutDown"}
	awardKeys       = []string{"round", "cutDown", "reward"}
	sessionEndKeys  = []string{"round", "reason"}
	rewardTableKeys = []string{"window", "round", "entries"}
	windowKeys      = []string{"start", "end"}
	rewardEntryKeys = []string{"cutDown", "reward"}
)

// inPlace is the decode UnmarshalBinary runs on the read buffer: a body of a
// schema kind as its payload, when the kind's parser takes every byte and
// Validate passes. Anything else is false, and the caller keeps the body as
// Body for Decode, whose answer — the same value, or encoding/json's or
// Validate's error — is then the only one.
func inPlace(kind Kind, body []byte) (Payload, bool) {
	switch kind {
	case KindCutDownBid:
		return valid(parseCutDownBid(body))
	case KindAward:
		return valid(parseAward(body))
	case KindSessionEnd:
		return valid(parseSessionEnd(body))
	case KindRewardTable:
		return valid(parseRewardTable(body))
	}
	return nil, false
}

// valid boxes a parsed value that Validate accepts.
func valid[T Payload](v T, ok bool) (Payload, bool) {
	if !ok || v.Validate() != nil {
		return nil, false
	}
	return v, true
}

// schemaDecoder returns a schema kind's decoders entry: inPlace's payload,
// or, for a body inPlace does not take, encoding/json's answer — which, for a
// body in the grammar, is the same value, refused by the same Validate.
func schemaDecoder[T Payload]() func([]byte) (Payload, error) {
	kind := (*new(T)).Kind()
	return func(body []byte) (Payload, error) {
		if p, ok := inPlace(kind, body); ok {
			return p, nil
		}
		return decodeAs[T](body)
	}
}

// The parsers: each reads its kind's grammar, and nothing else, in place.

func parseCutDownBid(body []byte) (v CutDownBid, ok bool) {
	ok = eachField(body, cutDownBidKeys, func(i int, val []byte) bool {
		if i == 0 {
			return readInt(val, &v.Round)
		}
		return readFloat(val, &v.CutDown)
	})
	return v, ok
}

func parseAward(body []byte) (v Award, ok bool) {
	ok = eachField(body, awardKeys, func(i int, val []byte) bool {
		switch i {
		case 0:
			return readInt(val, &v.Round)
		case 1:
			return readFloat(val, &v.CutDown)
		}
		return readFloat(val, &v.Reward)
	})
	return v, ok
}

func parseSessionEnd(body []byte) (v SessionEnd, ok bool) {
	ok = eachField(body, sessionEndKeys, func(i int, val []byte) bool {
		if i == 0 {
			return readInt(val, &v.Round)
		}
		if stringEnd(val) != len(val) {
			return false
		}
		v.Reason = string(val[1 : len(val)-1])
		return true
	})
	return v, ok
}

func parseRewardTable(body []byte) (v RewardTable, ok bool) {
	ok = eachField(body, rewardTableKeys, func(i int, val []byte) bool {
		switch i {
		case 0:
			return eachField(val, windowKeys, func(i int, val []byte) bool {
				t := &v.Window.Start
				if i == 1 {
					t = &v.Window.End
				}
				return stringEnd(val) == len(val) && t.UnmarshalJSON(val) == nil
			})
		case 1:
			return readInt(val, &v.Round)
		}
		// An entry is at least `{}`, so the count of '{' sizes Entries exactly.
		v.Entries = make([]RewardEntry, 0, bytes.Count(val, []byte{'{'}))
		return eachElement(val, func(el []byte) bool {
			var e RewardEntry
			ok := eachField(el, rewardEntryKeys, func(i int, val []byte) bool {
				if i == 0 {
					return readFloat(val, &e.CutDown)
				}
				return readFloat(val, &e.Reward)
			})
			v.Entries = append(v.Entries, e)
			return ok
		})
	})
	return v, ok
}

// eachField walks obj as `{"key":value,...}` and calls set with each member's
// index in keys and its value's bytes (never empty). It reports false — the
// caller falls back to encoding/json — when obj is not exactly that: a key not
// in keys or met twice, a byte between tokens, a value valueEnd cannot
// delimit, or set refusing the value. Members may come in any order and may be
// missing, as for encoding/json. There are at most 8 keys (seen is a byte).
func eachField(obj []byte, keys []string, set func(i int, val []byte) bool) bool {
	if len(obj) < 2 || obj[0] != '{' {
		return false
	}
	rest := obj[1:]
	if rest[0] == '}' {
		return len(rest) == 1
	}
	var seen uint8
	for {
		n := stringEnd(rest)
		if n == 0 {
			return false
		}
		i := 0
		for i < len(keys) && string(rest[1:n-1]) != keys[i] {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 || n == len(rest) || rest[n] != ':' {
			return false
		}
		seen |= 1 << i
		rest = rest[n+1:]
		if n = valueEnd(rest); n == 0 || !set(i, rest[:n]) {
			return false
		}
		// valueEnd stopped in front of a ',', a '}' or a ']'.
		switch rest = rest[n:]; rest[0] {
		case ',':
			rest = rest[1:]
		case '}':
			return len(rest) == 1
		default:
			return false
		}
	}
}

// eachElement walks arr as `[value,...]` the way eachField walks an object.
func eachElement(arr []byte, each func(el []byte) bool) bool {
	if len(arr) < 2 || arr[0] != '[' {
		return false
	}
	rest := arr[1:]
	if rest[0] == ']' {
		return len(rest) == 1
	}
	for {
		n := valueEnd(rest)
		if n == 0 || !each(rest[:n]) {
			return false
		}
		switch rest = rest[n:]; rest[0] {
		case ',':
			rest = rest[1:]
		case ']':
			return len(rest) == 1
		default:
			return false
		}
	}
}

// valueEnd returns the length of the value b starts with — every byte up to
// the ',', '}' or ']' that follows it at its own nesting depth — or 0 when
// there is no such byte or the value is empty. It only delimits: a string must
// pass stringEnd, but brackets are merely counted, and whoever is handed the
// bytes checks them against its own grammar.
func valueEnd(b []byte) int {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			n := stringEnd(b[i:])
			if n == 0 {
				return 0
			}
			i += n - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return 0
}

// stringEnd returns the length of the string literal b starts with, quotes
// included, or 0 unless it is one whose bytes are its value: no escape, no
// control character (a syntax error to encoding/json) and valid UTF-8 (which
// encoding/json would otherwise repair).
func stringEnd(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if !utf8.Valid(b[1:i]) {
				return 0
			}
			return i + 1
		case c == '\\' || c < ' ':
			return 0
		}
	}
	return 0
}

// readInt sets *dst from a JSON number the way encoding/json fills an int
// field; false for what it refuses (a fraction, an exponent, an overflow).
func readInt(val []byte, dst *int) bool {
	if !jsonNumber(val) {
		return false
	}
	n, err := strconv.ParseInt(string(val), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

// readFloat sets *dst from a JSON number the way encoding/json fills a
// float64 field; false for a magnitude float64 cannot hold.
func readFloat(val []byte, dst *float64) bool {
	if !jsonNumber(val) {
		return false
	}
	var err error
	*dst, err = strconv.ParseFloat(string(val), 64)
	return err == nil
}

// jsonNumber reports whether b is a number in JSON's grammar, which is
// narrower than strconv's: no "+1", ".5", "5.", "01", "0x10", "1_0", "Inf".
func jsonNumber(b []byte) bool {
	digits := func() bool {
		n := 0
		for len(b) > 0 && '0' <= b[0] && b[0] <= '9' {
			b, n = b[1:], n+1
		}
		return n > 0
	}
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	if len(b) > 0 && b[0] == '0' {
		b = b[1:]
	} else if !digits() {
		return false
	}
	if len(b) > 0 && b[0] == '.' {
		if b = b[1:]; !digits() {
			return false
		}
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		if b = b[1:]; len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if !digits() {
			return false
		}
	}
	return len(b) == 0
}

// Schema encoders: the other direction, for the three kinds a session sends
// by the thousand — CutDownBid, Award and RewardTable. Their JSON is written
// by hand in the bytes json.Marshal writes: the fields in declaration order
// under their tags, an int as strconv.AppendInt writes it, a float as
// encoding/json's floatEncoder does, a time as Time.MarshalJSON does (RFC 3339
// with nanoseconds, without MarshalJSON's allocation). FuzzLazyFrame holds the
// two equal byte for byte; any other payload is encoding/json's to write.

// appendSchemaJSON appends p's JSON to dst and reports whether p is one of
// the kinds written here. A float or time JSON cannot hold is an error, as it
// is to json.Marshal.
func appendSchemaJSON(dst []byte, p Payload) ([]byte, bool, error) {
	switch v := p.(type) {
	case CutDownBid:
		if !finite(v.CutDown) {
			return dst, true, fmt.Errorf("%w: cutDown %v", ErrBadValue, v.CutDown)
		}
		dst = strconv.AppendInt(append(dst, `{"round":`...), int64(v.Round), 10)
		return append(appendJSONFloat(append(dst, `,"cutDown":`...), v.CutDown), '}'), true, nil
	case Award:
		if !finite(v.CutDown, v.Reward) {
			return dst, true, fmt.Errorf("%w: cutDown %v, reward %v", ErrBadValue, v.CutDown, v.Reward)
		}
		dst = strconv.AppendInt(append(dst, `{"round":`...), int64(v.Round), 10)
		dst = appendJSONFloat(append(dst, `,"cutDown":`...), v.CutDown)
		return append(appendJSONFloat(append(dst, `,"reward":`...), v.Reward), '}'), true, nil
	case RewardTable:
		if !exactRFC3339(v.Window.Start) || !exactRFC3339(v.Window.End) {
			return dst, true, fmt.Errorf("%w: window %v has no exact RFC 3339 form", ErrBadValue, v.Window)
		}
		for _, e := range v.Entries {
			if !finite(e.CutDown, e.Reward) {
				return dst, true, fmt.Errorf("%w: entry %v", ErrBadValue, e)
			}
		}
		dst = v.Window.Start.AppendFormat(append(dst, `{"window":{"start":"`...), time.RFC3339Nano)
		dst = v.Window.End.AppendFormat(append(dst, `","end":"`...), time.RFC3339Nano)
		dst = strconv.AppendInt(append(dst, `"},"round":`...), int64(v.Round), 10)
		dst = append(dst, `,"entries":`...)
		if v.Entries == nil {
			return append(dst, `null}`...), true, nil
		}
		dst = append(dst, '[')
		for i, e := range v.Entries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(append(dst, `{"cutDown":`...), e.CutDown)
			dst = append(appendJSONFloat(append(dst, `,"reward":`...), e.Reward), '}')
		}
		return append(dst, "]}"...), true, nil
	}
	return dst, false, nil
}

// appendJSONFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 up, with the exponent unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 is written e-7
		dst = dst[:n-1]
	}
	return dst
}
