package message

import (
	"bytes"
	"errors"
	"testing"
)

// TestReplicationPayloadValidation covers the replication vocabulary's
// validation rules.
func TestReplicationPayloadValidation(t *testing.T) {
	tests := []struct {
		name    string
		p       Payload
		wantErr error
	}{
		{name: "subscribe valid", p: ReplSubscribe{Replica: "r0", FromSeq: 0}},
		{name: "subscribe empty replica", p: ReplSubscribe{}, wantErr: ErrEmptyField},
		{name: "batch valid", p: ReplBatch{FirstSeq: 1, Count: 2, Frames: []byte{1, 2, 3}}},
		{name: "batch seq zero", p: ReplBatch{FirstSeq: 0, Count: 1, Frames: []byte{1}}, wantErr: ErrBadValue},
		{name: "batch empty count", p: ReplBatch{FirstSeq: 1, Count: 0, Frames: []byte{1}}, wantErr: ErrBadValue},
		{name: "batch no frames", p: ReplBatch{FirstSeq: 1, Count: 1}, wantErr: ErrEmptyField},
		{name: "ack valid", p: ReplAck{Replica: "r1", AppliedSeq: 9}},
		{name: "ack empty replica", p: ReplAck{AppliedSeq: 9}, wantErr: ErrEmptyField},
		{name: "snapshot valid", p: ReplSnapshot{Seq: 7, Blob: []byte("state")}},
		{name: "snapshot seq zero", p: ReplSnapshot{Blob: []byte("state")}, wantErr: ErrBadValue},
		{name: "snapshot empty blob", p: ReplSnapshot{Seq: 7}, wantErr: ErrEmptyField},
		{name: "heartbeat valid", p: ReplHeartbeat{LastSeq: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if tt.wantErr == nil && err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestReplicationEnvelopeRoundTrip runs every replication kind through the
// envelope's binary codec and the trust-boundary check: the payload must
// survive byte-exactly (frames are raw journal bytes — any mangling corrupts
// the replica journal).
func TestReplicationEnvelopeRoundTrip(t *testing.T) {
	frames := []byte{0x04, 0x03, 0xAA, 0xBB, 0xCC, 0x01, 0x02, 0x03, 0x04}
	payloads := []Payload{
		ReplSubscribe{Replica: "r0", FromSeq: 42},
		ReplBatch{FirstSeq: 43, Count: 1, Frames: frames},
		ReplAck{Replica: "r0", AppliedSeq: 43},
		ReplSnapshot{Seq: 40, Blob: []byte{0x00, 0xFF, 0x7F}},
		ReplHeartbeat{LastSeq: 43},
	}
	for _, p := range payloads {
		t.Run(string(p.Kind()), func(t *testing.T) {
			env, err := NewEnvelope("replica-r0", "repl", "grid", p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wireRoundTrip(env)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := got.Decode()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			switch want := p.(type) {
			case ReplBatch:
				gb, ok := dp.(ReplBatch)
				if !ok || gb.FirstSeq != want.FirstSeq || gb.Count != want.Count || !bytes.Equal(gb.Frames, want.Frames) {
					t.Fatalf("round trip = %+v, want %+v", dp, want)
				}
			case ReplSnapshot:
				gs, ok := dp.(ReplSnapshot)
				if !ok || gs.Seq != want.Seq || !bytes.Equal(gs.Blob, want.Blob) {
					t.Fatalf("round trip = %+v, want %+v", dp, want)
				}
			case ReplSubscribe, ReplAck, ReplHeartbeat:
				if dp != want {
					t.Fatalf("round trip = %+v, want %+v", dp, want)
				}
			}
		})
	}
}
