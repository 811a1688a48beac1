package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The ops of FuzzLiveDurable, one a byte: the byte modulo liveOps picks the
// op, the rest of it is the op's argument.
const (
	opTick     = iota // run 1–4 ticks
	opSpike           // a demand spike on one shard from the current tick
	opSnapshot        // snapshot the engine's state now
	opCrash           // close the journal unsealed and recover
	opTear            // crash, cut b bytes off the last tick's record, recover
	liveOps
)

// maxLiveOps bounds one input's op sequence.
const maxLiveOps = 48

// liveSpikes lays out the shard spikes an op sequence asks for: an opSpike
// after t ticks (counting every opTick's ticks) spikes its shard from tick t
// for six ticks. Events are configuration, so every open of the grid is
// given all of them.
func liveSpikes(ops []byte, shards int) map[int][]Event {
	spikes := make(map[int][]Event)
	tick := 0
	for _, b := range ops {
		op, arg := int(b)%liveOps, int(b)/liveOps
		switch op {
		case opTick:
			tick += 1 + arg%4
		case opSpike:
			k := arg % shards
			spikes[k] = append(spikes[k], Event{StartTick: tick, EndTick: tick + 5, Factor: 2.5})
		}
	}
	return spikes
}

// FuzzLiveDurable drives a durable live grid of at most 24 customers on 2–4
// shards through an arbitrary sequence of ticks, shard spikes, snapshots,
// crashes and torn tails. After every crash the recovered profile is
// byte-identical to the profile before the crash — or, when a torn tail cut
// a tick no snapshot holds, to the profile one tick earlier — and every tick
// reads as the same tick of an uninterrupted run.
func FuzzLiveDurable(f *testing.F) {
	// An op byte is op + liveOps·arg: a tick op runs arg+1 ticks, a spike
	// hits shard arg, a tear cuts arg+1 bytes.
	// 24 customers on 4 shards, snapshots every 5 ticks: spikes, a crash,
	// torn tails the snapshots do not hold.
	f.Add([]byte{2, 20, 4, 15, 1, 15, 3, 6, 15, 4, 10, 24, 3, 15})
	// 16 on 2, snapshots every 8: torn tails a snapshot holds.
	f.Add([]byte{0, 14, 7, 10, 2, 54, 5, 2, 4, 15})
	// 11 on 3, a snapshot every tick.
	f.Add([]byte{1, 8, 0, 10, 4, 15, 11, 3, 6, 10, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shards := 2 + int(data[0]%3)
		n := shards + int(data[1])%(25-shards)
		dcfg := DurableConfig{Dir: t.TempDir(), SnapshotEvery: 1 + int(data[2]%8)}
		ops := data[3:min(len(data), 3+maxLiveOps)]
		cfg := durableCfg(t, n, shards, 7)
		cfg.ShardEvents = liveSpikes(ops, shards)

		ref, err := NewLiveEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Start(); err != nil {
			t.Fatal(err)
		}
		// want[k] is the uninterrupted run's profile after k ticks.
		want := [][]byte{profileJSON(t, ref)}
		wantAt := func(tick int) []byte {
			for len(want) <= tick {
				runTicks(t, ref, 1)
				want = append(want, profileJSON(t, ref))
			}
			return want[tick]
		}

		e, _, err := OpenDurable(cfg, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { e.Store().Close() }()
		lastFrame := 0 // bytes the last tick appended since the open, 0 before one
		for i, b := range ops {
			op, arg := int(b)%liveOps, int(b)/liveOps
			switch op {
			case opTick:
				for range 1 + arg%4 {
					before := e.Store().Stats().BytesWritten
					runTicks(t, e, 1)
					lastFrame = int(e.Store().Stats().BytesWritten - before)
					if got := profileJSON(t, e); !bytes.Equal(got, wantAt(e.tick)) {
						t.Fatalf("op %d: tick %d diverged from the uninterrupted run\n got: %s\nwant: %s", i, e.tick-1, got, wantAt(e.tick))
					}
				}
			case opSnapshot:
				if err := e.Store().Snapshot(e.snapshotBlob()); err != nil {
					t.Fatal(err)
				}
			case opCrash, opTear:
				tick, st := e.tick, e.Store().Stats()
				e.Stop()
				if err := e.Store().Close(); err != nil {
					t.Fatal(err)
				}
				resume := tick
				if op == opTear && lastFrame > 0 {
					tearTail(t, dcfg.Dir, 1+arg%lastFrame)
					if st.SnapshotSeq != st.LastSeq {
						resume-- // the torn tick is in no snapshot
					}
				}
				var info *RecoveryInfo
				if e, info, err = OpenDurable(cfg, dcfg); err != nil {
					t.Fatalf("op %d: recover: %v", i, err)
				}
				if info.ResumeTick != resume {
					t.Fatalf("op %d: resumed at tick %d, want %d", i, info.ResumeTick, resume)
				}
				if got := profileJSON(t, e); !bytes.Equal(got, wantAt(resume)) {
					t.Fatalf("op %d: recovered profile at tick %d diverged\n got: %s\nwant: %s", i, resume, got, wantAt(resume))
				}
				lastFrame = 0
			}
		}
	})
}

// tearTail cuts b bytes off the end of a data directory's newest journal
// segment, as a crash mid-write leaves it.
func tearTail(t *testing.T, dir string, b int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-b], 0o644); err != nil {
		t.Fatal(err)
	}
}
