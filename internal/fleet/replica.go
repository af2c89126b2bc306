package fleet

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
	"fekf/internal/stream"
)

// replica is one member of the fleet: a full model + Kalman filter pair
// (bitwise identical to every other live replica's), plus the private
// per-shard ingest state — queue, gate, replay buffer — and the published
// copy-on-write snapshot the predict router reads.
//
// The model, optimizer, gate and replay buffer are owned by the fleet's
// conductor goroutine; the queue, the snapshot pointer and the mirrored
// atomic counters are the concurrent surface.
type replica struct {
	id    int
	dev   *device.Device
	clock Clock
	model *deepmd.Model
	// opt is the replica's filter.  Its full Kalman state is built at the
	// replica's first replicated step; under pshard it never is (that is
	// the point of sharding) — the conductor holds the rank's P slabs in
	// Fleet.pstates.
	opt *optimize.FEKF

	queue  *stream.Queue
	replay *stream.ReplayBuffer
	gate   *stream.Gate

	snap  atomic.Pointer[stream.ModelSnapshot]
	alive atomic.Bool
	// pBytes mirrors the replica's resident covariance bytes (full P
	// replicated, or the owned slabs under pshard) for the stats readers;
	// the conductor refreshes it after steps and membership changes.
	pBytes atomic.Int64

	// mirrored observability (written by the conductor / router, read by
	// Stats from any goroutine)
	accepted  atomic.Int64
	gatedOut  atomic.Int64
	seen      atomic.Int64
	replayLen atomic.Int64
	replayWin atomic.Int64
	replayRes atomic.Int64
	replayCap atomic.Int64
	gateEMA   atomic.Uint64
	routed    atomic.Int64
}

// newReplica clones the prototype model and optimizer onto a fresh
// simulated device and builds the replica's private shard state.
func newReplica(id int, m *deepmd.Model, opt *optimize.FEKF, cfg Config) (*replica, error) {
	dev := device.New(fmt.Sprintf("fleet%d", id), device.A100())
	model := m.CloneFor(dev)
	ropt, err := optimize.RestoreFEKF(opt.Checkpoint(), model)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d optimizer: %w", id, err)
	}
	// The checkpoint leaves Pipeline out (it is bitwise neutral); keep the
	// prototype's choice rather than the environment default.
	ropt.Pipeline = opt.Pipeline
	// No Kalman state yet unless the prototype had one: the full P is
	// built at the replica's first step (see Fleet.step), so an idle
	// service holds no covariance.  NewKalmanState is deterministic
	// (P = I), so lazily-built replicas still start bit-identical.  In
	// pshard mode the full state is never built — the conductor allocates
	// only this replica's row slabs.
	r := &replica{
		id:     id,
		dev:    dev,
		clock:  cfg.Clock,
		model:  model,
		opt:    ropt,
		queue:  stream.NewQueue(cfg.QueueSize, cfg.QueuePolicy),
		replay: stream.NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed+int64(id)),
		gate:   stream.NewGate(cfg.Gate),
	}
	r.alive.Store(true)
	r.pBytes.Store(ropt.PBytes())
	r.mirrorReplay()
	return r, nil
}

// admit runs one frame through the replica's gate into its replay buffer.
// Conductor goroutine only.
func (f *Fleet) admit(r *replica, s dataset.Snapshot) {
	if f.cfg.Trace != nil && f.rec == nil {
		f.rec = f.cfg.Trace.Begin()
	}
	a0 := time.Now()
	defer func() { f.rec.Span(r.id, "ingest_admit", a0, time.Since(a0)) }()
	scratch := &dataset.Dataset{System: f.system, Species: f.species, Snapshots: []dataset.Snapshot{s}}
	// Under pshard each replica gates on the diagonal of its own owned P
	// rows (zeros elsewhere) — a documented approximation: scores touching
	// unowned rows read 0, so the partial gate is more permissive than the
	// full diagonal, never stricter.
	pd := r.opt.PDiagonal()
	if f.cfg.PShard {
		pd = nil
		if st := f.pstates[r.id]; st != nil {
			pd = st.PDiagonalOwned()
		}
	}
	g0 := time.Now()
	ok, _, err := r.gate.Admit(r.model, pd, scratch, 0)
	f.rec.Span(r.id, "gate", g0, time.Since(g0))
	if err != nil {
		f.setErr(fmt.Errorf("replica %d gate: %w", r.id, err))
		return
	}
	r.gateEMA.Store(math.Float64bits(r.gate.EMA()))
	if !ok {
		r.gatedOut.Add(1)
		return
	}
	r.replay.Add(s)
	r.accepted.Add(1)
	r.mirrorReplay()
}

// mirrorReplay refreshes the replay-buffer counters Stats reads.
// Conductor goroutine only.
func (r *replica) mirrorReplay() {
	r.replayLen.Store(int64(r.replay.Len()))
	r.replayWin.Store(int64(r.replay.WindowLen()))
	r.replayRes.Store(int64(r.replay.ReservoirLen()))
	r.replayCap.Store(int64(r.replay.Cap()))
	r.seen.Store(r.replay.Seen())
}

// restorePrivate installs one replica's checkpointed private state:
// liveness, stream counters, the replay buffer (its capacities and RNG
// position included) and the gate.  Conductor goroutine only.
func (r *replica) restorePrivate(rck *ReplicaCheckpoint, gate stream.GateConfig) {
	r.alive.Store(rck.Alive)
	r.accepted.Store(rck.FramesAccepted)
	r.gatedOut.Store(rck.FramesGatedOut)
	if rck.Replay != nil {
		r.replay = stream.RestoreReplay(rck.Replay)
		r.mirrorReplay()
	}
	if rck.Gate != nil {
		r.gate = stream.RestoreGate(rck.Gate, gate)
		r.gateEMA.Store(math.Float64bits(r.gate.EMA()))
	}
}

// publish swaps in a fresh copy-on-write snapshot of the replica's model,
// stamped from the fleet clock so snapshot ages are deterministic under a
// fake clock.  Conductor goroutine only (the clone must see quiescent
// weights).
func (r *replica) publish(step int64) {
	now := time.Now()
	if r.clock != nil {
		now = r.clock.Now()
	}
	r.snap.Store(&stream.ModelSnapshot{
		Model:     r.model.Clone(),
		Step:      step,
		Lambda:    r.opt.Lambda(),
		Published: now,
	})
}

// restoreShared replaces the replica's model and filter with the shared
// state carried by a fleet checkpoint — the rejoin/catch-up path.
// Conductor goroutine only.
func (r *replica) restoreShared(modelBytes []byte, opt *optimize.FEKFCheckpoint) error {
	m, err := decodeModelOn(modelBytes, r.dev)
	if err != nil {
		return fmt.Errorf("fleet: replica %d model: %w", r.id, err)
	}
	ropt, err := optimize.RestoreFEKF(opt, m)
	if err != nil {
		return fmt.Errorf("fleet: replica %d optimizer: %w", r.id, err)
	}
	// A checkpoint taken before the first step carries no Kalman state, and
	// under pshard none ever (P lives in the conductor's shard states);
	// either way nothing is materialized here.
	ropt.Pipeline = r.opt.Pipeline
	r.model, r.opt = m, ropt
	return nil
}
