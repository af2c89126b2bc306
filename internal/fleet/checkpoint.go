package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/optimize"
	"fekf/internal/pshard"
	"fekf/internal/stream"
)

// ReplicaCheckpoint is one replica's private shard state: its replay
// buffer (with RNG position), gate and stream counters.  The model and
// Kalman filter are deliberately absent — under the fleet invariant they
// are bitwise identical across replicas, so the checkpoint stores the
// shared state exactly once.
type ReplicaCheckpoint struct {
	ID             int
	Alive          bool
	FramesAccepted int64
	FramesGatedOut int64
	Replay         *stream.ReplayCheckpoint
	Gate           *stream.GateCheckpoint
}

// Checkpoint is the combined on-disk state of a fleet: the shared model
// stream and optimizer state (stored once — the consistency invariant
// makes per-replica copies redundant), plus each replica's private replay
// buffer, gate and counters.
type Checkpoint struct {
	System      string
	Species     []md.Species
	NumAtoms    int64
	Steps       int64
	ShardPolicy ShardPolicy
	RR          uint64 // round-robin shard cursor

	Model    []byte // shared deepmd model stream (Model.EncodeTo)
	Opt      *optimize.FEKFCheckpoint
	Replicas []*ReplicaCheckpoint

	// PShard records that the fleet ran with a sharded covariance; PCk
	// then carries every P row slab exactly once — saved by its owner
	// rank — plus the replicated scalar filter state.  Opt.Kalman is nil
	// in this mode (no replica ever materializes the full P).
	PShard bool
	PCk    *pshard.Checkpoint
}

// encodeModel serializes a model into the shared checkpoint stream.
func encodeModel(m *deepmd.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeModelOn rebuilds a model from its checkpoint stream onto dev.
func decodeModelOn(b []byte, dev *device.Device) (*deepmd.Model, error) {
	m, err := deepmd.DecodeModel(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if dev != nil {
		m.Dev = dev
	}
	return m, nil
}

// buildCheckpoint captures the fleet state, taking the shared model and
// filter from the first live replica (any would do — they are bitwise
// identical).  Conductor goroutine only (or after the loop has exited).
func (f *Fleet) buildCheckpoint() (*Checkpoint, error) {
	live := f.liveIDs()
	if len(live) == 0 {
		return nil, fmt.Errorf("fleet: no live replica to checkpoint the shared state from")
	}
	src := f.reps[live[0]]
	modelBytes, err := encodeModel(src.model)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		System:      f.system,
		Species:     f.species,
		NumAtoms:    f.naPer.Load(),
		Steps:       f.steps.Load(),
		ShardPolicy: f.cfg.ShardPolicy,
		RR:          f.rr.Load(),
		Model:       modelBytes,
		Opt:         src.opt.Checkpoint(),
	}
	for _, r := range f.reps {
		ck.Replicas = append(ck.Replicas, &ReplicaCheckpoint{
			ID:             r.id,
			Alive:          r.alive.Load(),
			FramesAccepted: r.accepted.Load(),
			FramesGatedOut: r.gatedOut.Load(),
			Replay:         r.replay.Checkpoint(),
			Gate:           r.gate.Checkpoint(),
		})
	}
	if f.cfg.PShard {
		var states []*pshard.State
		for _, id := range f.pliveIDs {
			if st := f.pstates[id]; st != nil {
				states = append(states, st)
			}
		}
		pck, err := pshard.BuildCheckpoint(states)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard checkpoint: %w", err)
		}
		ck.PShard = true
		ck.PCk = pck
	}
	return ck, nil
}

// WriteCheckpoint persists the fleet state crash-safely (temp file, fsync,
// atomic rename): into the checksummed retention ring when one is
// configured for path (see Config.CheckpointKeep), as a legacy plain gob
// file otherwise.  Conductor goroutine only; external callers use
// CheckpointNow or Stop.
func (f *Fleet) WriteCheckpoint(path string) error {
	ck, err := f.buildCheckpoint()
	if err != nil {
		return err
	}
	if f.ckRing != nil && path == f.cfg.CheckpointPath {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			return fmt.Errorf("fleet: encode checkpoint %s: %w", path, err)
		}
		seq, err := f.ckRing.Write(buf.Bytes())
		if err != nil {
			return err
		}
		f.health.NoteCheckpoint(seq, f.clock.Now())
		return nil
	}
	return stream.WriteGobAtomic(path, ck)
}

func (f *Fleet) writeCheckpointCounted(path string) error {
	c0 := time.Now()
	err := f.WriteCheckpoint(path)
	if m := f.cfg.Metrics; m != nil {
		m.CheckpointSeconds.Observe(time.Since(c0).Seconds())
	}
	if err == nil {
		f.ckWrites.Add(1)
	}
	return err
}

// legacyReplica holds the replica state a single-trainer checkpoint kept
// at top level, from before a single trainer became a fleet of one.  Gob
// matches fields by name, so decoding such a payload into it picks out
// exactly these fields.
type legacyReplica struct {
	FramesGatedOut int64
	FramesAccepted int64
	Replay         *stream.ReplayCheckpoint
	Gate           *stream.GateCheckpoint
}

// DecodeCheckpoint decodes checkpoint bytes: a CRC32-C framed ring
// generation (see guard.EncodeFrame) or a plain gob file, in the fleet
// layout or the single-trainer layout, which it converts into a
// one-replica fleet checkpoint.  A framed payload that is torn or
// bit-flipped fails with an error wrapping guard.ErrCorrupt rather than
// an opaque gob decode error.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if _, p, err := guard.DecodeFrame(bytes.NewReader(b)); err == nil {
		b = p
	} else if !errors.Is(err, guard.ErrNotFramed) {
		return nil, err
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ck); err != nil {
		return nil, err
	}
	if len(ck.Replicas) > 0 {
		return &ck, nil
	}
	var lr legacyReplica
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&lr); err != nil || lr.Replay == nil {
		return nil, fmt.Errorf("fleet: checkpoint has no replicas")
	}
	ck.Replicas = []*ReplicaCheckpoint{{
		Alive:          true,
		FramesAccepted: lr.FramesAccepted,
		FramesGatedOut: lr.FramesGatedOut,
		Replay:         lr.Replay,
		Gate:           lr.Gate,
	}}
	return &ck, nil
}

// LoadCheckpoint reads a checkpoint file written by WriteCheckpoint (or by
// the single trainer before it became a fleet of one); see
// DecodeCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// LoadNewestCheckpoint resolves the newest valid generation of the fleet
// checkpoint ring around path (see Config.CheckpointKeep): corrupt or torn
// generation files are quarantined (their pre-quarantine paths are
// returned) and the next older generation is tried; with no generation
// files at all it falls back to a legacy single-file checkpoint at path
// itself.  The returned sequence number is 0 for the legacy fallback.
func LoadNewestCheckpoint(path string, keep int) (*Checkpoint, uint64, []string, error) {
	ring := guard.NewRing(path, keep)
	seq, payload, quarantined, err := ring.LoadNewest()
	if err != nil {
		if errors.Is(err, guard.ErrNoCheckpoint) {
			if _, statErr := os.Stat(path); statErr == nil {
				ck, lerr := LoadCheckpoint(path)
				return ck, 0, quarantined, lerr
			}
		}
		return nil, 0, quarantined, err
	}
	ck, err := DecodeCheckpoint(payload)
	if err != nil {
		return nil, 0, quarantined, fmt.Errorf("fleet: decode checkpoint generation %d: %w", seq, err)
	}
	return ck, seq, quarantined, nil
}

// Resume reconstructs a fleet from a checkpoint: every replica gets the
// shared model weights and full Kalman filter (λ, update counter, every P
// block — bitwise), plus its own replay buffer with the sampling RNG at
// the checkpointed position, gate and counters.  The replica count and
// shard policy come from the checkpoint; cfg supplies the runtime knobs.
func Resume(ck *Checkpoint, cfg Config) (*Fleet, error) {
	if len(ck.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: checkpoint has no replicas")
	}
	if ck.Opt == nil {
		return nil, fmt.Errorf("fleet: checkpoint has no optimizer state")
	}
	m, err := decodeModelOn(ck.Model, nil)
	if err != nil {
		return nil, err
	}
	opt, err := optimize.RestoreFEKF(ck.Opt, m)
	if err != nil {
		return nil, err
	}
	cfg.Replicas = len(ck.Replicas)
	cfg.ShardPolicy = ck.ShardPolicy
	cfg.PShard = ck.PShard
	cfg.pshardResume = ck.PCk
	if ck.PShard && ck.PCk == nil {
		return nil, fmt.Errorf("fleet: sharded checkpoint has no covariance slabs")
	}
	proto := &dataset.Dataset{System: ck.System, Species: ck.Species}
	f, err := New(m, opt, proto, cfg)
	if err != nil {
		return nil, err
	}
	f.naPer.Store(ck.NumAtoms)
	f.steps.Store(ck.Steps)
	f.rr.Store(ck.RR)
	if ck.PShard {
		f.lambdaBits.Store(math.Float64bits(ck.PCk.Lambda))
	} else {
		f.lambdaBits.Store(math.Float64bits(opt.Lambda()))
	}
	for i, rck := range ck.Replicas {
		f.reps[i].restorePrivate(rck, cfg.Gate)
	}
	return f, nil
}
