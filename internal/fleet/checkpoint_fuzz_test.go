package fleet

import (
	"bytes"
	"encoding/gob"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/optimize"
	"fekf/internal/stream"
)

// singleTrainerLayout is the gob layout of a checkpoint written by the
// single trainer before it became a fleet of one: the replica's replay
// buffer, gate and counters sit at top level.
type singleTrainerLayout struct {
	System         string
	Species        []md.Species
	NumAtoms       int64
	Steps          int64
	FramesGatedOut int64
	FramesAccepted int64
	Model          []byte
	Opt            *optimize.FEKFCheckpoint
	Replay         *stream.ReplayCheckpoint
	Gate           *stream.GateCheckpoint
}

// FuzzDecodeCheckpoint feeds arbitrary bytes through the one checkpoint
// decoder — frame sniffing, the fleet layout and the single-trainer
// layout.  It must never panic, and whatever it accepts must re-encode to
// a fixed point: encoding the decoded checkpoint, decoding that and
// encoding again yields the same bytes.  The seeds are small on purpose:
// the fuzzer minimizes every input that finds new coverage, and a
// realistic checkpoint (tens of kB) spends the whole run minimizing.
func FuzzDecodeCheckpoint(f *testing.F) {
	frame := dataset.Snapshot{Pos: []float64{0, 0, 0}, Box: [3]float64{9, 9, 9}, Types: []int{0},
		Energy: -3.5, Forces: []float64{0.1, -0.2, 0.3}}
	opt := &optimize.FEKFCheckpoint{Name: "FEKF", ForceGroups: 4,
		Kalman: &optimize.KalmanCheckpoint{Lambda: 0.98, Updates: 5, Sizes: []int{2}, P: [][]float64{{1, 0.5, 0.5, 2}}}}
	replay := &stream.ReplayCheckpoint{Window: []dataset.Snapshot{frame}, WindowCap: 2,
		Reservoir: []dataset.Snapshot{frame}, ResCap: 2, Seen: 1, RNG: 42}
	gate := &stream.GateCheckpoint{EMA: 1, N: 1, Accepted: 1}
	species := []md.Species{{Name: "Cu", Mass: 63.5}}
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	legacy := encode(singleTrainerLayout{System: "Cu", Species: species, NumAtoms: 1, Steps: 3,
		FramesAccepted: 1, Model: []byte{1, 2, 3}, Opt: opt, Replay: replay, Gate: gate})
	var framed bytes.Buffer
	if err := guard.EncodeFrame(&framed, 7, legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(framed.Bytes())
	f.Add(encode(&Checkpoint{System: "Cu", Species: species, NumAtoms: 1, Steps: 3, RR: 1,
		Model: []byte{1, 2, 3}, Opt: opt, Replicas: []*ReplicaCheckpoint{
			{ID: 0, Alive: true, FramesAccepted: 1, Replay: replay, Gate: gate},
			{ID: 1, FramesGatedOut: 2}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		var b1, b2 bytes.Buffer
		if err := gob.NewEncoder(&b1).Encode(ck); err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v", err)
		}
		ck2, err := DecodeCheckpoint(b1.Bytes())
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if err := gob.NewEncoder(&b2).Encode(ck2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("re-encoding changed the decoded checkpoint")
		}
	})
}
