package online

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/optimize"
	"fekf/internal/train"
)

// TrainerConfig controls the online trainer loop.
type TrainerConfig struct {
	// BatchSize is the minibatch drawn from the replay buffer per step.
	BatchSize int
	// QueueSize bounds the ingest queue (frames).
	QueueSize int
	// QueuePolicy selects the full-queue behaviour.
	QueuePolicy Policy
	// WindowSize and ReservoirSize size the replay buffer.
	WindowSize, ReservoirSize int
	// MinFrames is the number of buffered frames required before training
	// starts (defaults to BatchSize).
	MinFrames int
	// SnapshotEvery publishes a fresh model snapshot every that many steps
	// (default 8; the initial snapshot is always published at Start).
	SnapshotEvery int
	// CheckpointPath, when set with CheckpointEvery > 0, receives a
	// combined crash-safe checkpoint every CheckpointEvery steps and a
	// final one at Stop.
	CheckpointPath  string
	CheckpointEvery int
	// CheckpointKeep > 0 turns CheckpointPath into a checksummed
	// retention ring: each write lands as a CRC32-C framed generation
	// (ckpt.000017.gob style) and the last CheckpointKeep generations are
	// retained, giving the divergence guard healthy states to roll back
	// to.  0 keeps the legacy single-file behaviour.
	CheckpointKeep int
	// Guard, when Enabled, runs the numerical health sentinel after every
	// step (λ bounds, sampled weight/P-diagonal finiteness and blow-up
	// thresholds); a divergence triggers an automatic rollback to the
	// newest valid checkpoint generation.
	Guard guard.SentinelConfig
	// Chaos deterministically injects state faults (NaN/Inf weight poison
	// at a given step) to drive the guard's recovery path under test.
	Chaos guard.ChaosConfig
	// Gate configures uncertainty gating of the ingest stream.
	Gate GateConfig
	// TrainIdle keeps drawing replay minibatches while no new frames
	// arrive; off, the trainer only steps after fresh ingest.
	TrainIdle bool
	// PollInterval is how long the loop waits for a frame before
	// re-checking for work (default 10ms).
	PollInterval time.Duration
	// Seed drives replay sampling.
	Seed int64
	// OnStep, if non-nil, runs on the trainer goroutine after every
	// optimizer step.
	OnStep func(step int64, info optimize.StepInfo)
	// Metrics, when non-nil, receives step and checkpoint latency
	// observations (see NewMetrics).  Nil disables instrumentation at the
	// cost of one pointer check per step.
	Metrics *Metrics
	// Trace, when non-nil, records a per-step phase timeline (ingest
	// admit, gate, sample, step, snapshot publish, checkpoint) into the
	// ring served at /v1/trace.
	Trace *obs.Tracer
}

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.BatchSize < 1 {
		c.BatchSize = 8
	}
	if c.QueueSize < 1 {
		c.QueueSize = 256
	}
	if c.WindowSize < 1 {
		c.WindowSize = 256
	}
	if c.ReservoirSize < 1 {
		c.ReservoirSize = 256
	}
	if c.MinFrames < 1 {
		c.MinFrames = c.BatchSize
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 8
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	return c
}

// ModelSnapshot is one published copy-on-write view of the trainer: an
// immutable deep copy of the model plus the schedule position it was taken
// at.  Readers run forwards on Model concurrently; nothing here is ever
// mutated after publication.
type ModelSnapshot struct {
	Model     *deepmd.Model
	Step      int64
	Lambda    float64
	Published time.Time
}

// Trainer is the online-learning engine: one goroutine owns the model and
// optimizer and drains the ingest queue through the gate into the replay
// buffer, stepping FEKF on replay minibatches and publishing snapshots via
// an atomic pointer swap.
type Trainer struct {
	cfg     TrainerConfig
	model   *deepmd.Model
	opt     *optimize.FEKF
	stepper train.Stepper
	system  string
	species []md.Species
	// modelCfg is the model configuration frames are validated against;
	// unlike model, which a rollback swaps, it is safe to read from ingest.
	modelCfg deepmd.Config
	naPer    atomic.Int64 // per-frame atom count, fixed by the first frame

	queue  *Queue
	replay *ReplayBuffer
	gate   *Gate

	// rec accumulates the phase spans of the upcoming step (ingest/gate
	// activity happens between steps and is attributed to the step it
	// feeds).  Owned by the loop goroutine; nil when tracing is off.
	rec *obs.StepRecorder

	// self-healing state: the checkpoint retention ring (nil in legacy
	// single-file mode), the post-step health sentinel (nil when
	// disabled) and the divergence/rollback ledger stats expose.
	ring     *guard.Ring
	sentinel *guard.Sentinel
	health   *guard.Health
	// chaosFired makes the configured poison injection one-shot, so the
	// re-run of the poisoned step after rollback proceeds clean.
	chaosFired bool

	// forceGroups caches the optimizer's force-group count at build time:
	// it is invariant for the trainer's lifetime, and reading it off t.opt
	// would race with a guard rollback swapping the optimizer out (Stats
	// runs from any goroutine).
	forceGroups int

	snap       atomic.Pointer[ModelSnapshot]
	steps      atomic.Int64
	lambdaBits atomic.Uint64
	pBytes     atomic.Int64
	gateEMA    atomic.Uint64
	accepted   atomic.Int64
	gatedOut   atomic.Int64
	replayLen  atomic.Int64
	replayWin  atomic.Int64
	replayRes  atomic.Int64
	replayCap  atomic.Int64
	seen       atomic.Int64
	ckWrites   atomic.Int64
	lastErr    atomic.Pointer[string]

	ckReq    chan chan error
	stop     chan struct{}
	loopDone chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// NewTrainer builds a trainer around an initialized model (normalization
// and energy bias set) and a FEKF optimizer.  proto supplies the system
// name and species table every streamed frame must match; if it carries
// snapshots, they fix the expected atom count (otherwise the first
// ingested frame does).
func NewTrainer(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg TrainerConfig) (*Trainer, error) {
	if m == nil || opt == nil {
		return nil, fmt.Errorf("online: NewTrainer needs a model and an optimizer")
	}
	if proto == nil || len(proto.Species) == 0 {
		return nil, fmt.Errorf("online: NewTrainer needs a prototype dataset with a species table")
	}
	if len(proto.Species) != m.Cfg.NumSpecies {
		return nil, fmt.Errorf("online: prototype has %d species, model wants %d", len(proto.Species), m.Cfg.NumSpecies)
	}
	cfg = cfg.withDefaults()
	t := &Trainer{
		cfg:      cfg,
		model:    m,
		opt:      opt,
		stepper:  train.OptStepper{M: m, Opt: opt},
		system:   proto.System,
		species:  proto.Species,
		modelCfg: m.Cfg,
		queue:    NewQueue(cfg.QueueSize, cfg.QueuePolicy),
		replay:   NewReplay(cfg.WindowSize, cfg.ReservoirSize, cfg.Seed),
		gate:     NewGate(cfg.Gate),

		ckReq:    make(chan chan error),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if cfg.CheckpointPath != "" && cfg.CheckpointKeep > 0 {
		t.ring = guard.NewRing(cfg.CheckpointPath, cfg.CheckpointKeep)
	}
	if cfg.Guard.Enabled {
		t.sentinel = guard.NewSentinel(cfg.Guard)
	}
	t.health = guard.NewHealth(0)
	if proto.Len() > 0 {
		t.naPer.Store(int64(proto.Snapshots[0].NumAtoms()))
	}
	t.replayCap.Store(int64(cfg.WindowSize + cfg.ReservoirSize))
	t.lambdaBits.Store(math.Float64bits(opt.Lambda()))
	t.pBytes.Store(opt.PBytes())
	t.forceGroups = opt.ForceGroups
	return t, nil
}

// Species returns the species table frames and predictions must use.
func (t *Trainer) Species() []md.Species { return t.species }

// System returns the physical system name.
func (t *Trainer) System() string { return t.system }

// NumAtoms returns the per-frame atom count the trainer is locked to, or
// 0 before the first frame fixes it.
func (t *Trainer) NumAtoms() int { return int(t.naPer.Load()) }

// Config returns the model configuration (for request validation).
func (t *Trainer) Config() deepmd.Config { return t.modelCfg }

// ValidateFrame checks a frame's structure against the trainer's system:
// consistent atom count, coordinate/force lengths, species range, finite
// labels and a geometry the environment builder accepts.
func (t *Trainer) ValidateFrame(s *dataset.Snapshot) error {
	return ValidateFrame(s, t.modelCfg, int(t.naPer.Load()))
}

// ValidateFrame checks a streamed frame's structure against a model
// configuration and an expected per-frame atom count (0 accepts any count
// — the first frame then fixes it).  Shared by the single trainer and the
// fleet's sharded ingest.  The geometry check (deepmd.CheckGeometry) is
// the one BuildEnv applies, so a frame accepted here never stalls gate
// admission or a training step in the neighbor scan.
func ValidateFrame(s *dataset.Snapshot, cfg deepmd.Config, wantAtoms int) error {
	na := s.NumAtoms()
	if na == 0 {
		return fmt.Errorf("online: frame has no atoms")
	}
	if wantAtoms != 0 && na != wantAtoms {
		return fmt.Errorf("online: frame has %d atoms, trainer wants %d", na, wantAtoms)
	}
	if len(s.Pos) != 3*na {
		return fmt.Errorf("online: frame has %d coordinates for %d atoms", len(s.Pos), na)
	}
	if len(s.Forces) != 3*na {
		return fmt.Errorf("online: frame has %d force components for %d atoms", len(s.Forces), na)
	}
	for i, ty := range s.Types {
		if ty < 0 || ty >= cfg.NumSpecies {
			return fmt.Errorf("online: atom %d has species %d, table holds %d", i, ty, cfg.NumSpecies)
		}
	}
	for i, v := range s.Forces {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("online: force component %d is %g", i, v)
		}
	}
	if math.IsNaN(s.Energy) || math.IsInf(s.Energy, 0) {
		return fmt.Errorf("online: frame energy is %g", s.Energy)
	}
	if err := deepmd.CheckGeometry(cfg, s.Box, s.Pos); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	return nil
}

// Ingest validates and offers one labelled frame to the queue, reporting
// whether it was accepted (false without error means dropped by policy).
func (t *Trainer) Ingest(s dataset.Snapshot) (bool, error) {
	if err := t.ValidateFrame(&s); err != nil {
		return false, err
	}
	t.naPer.CompareAndSwap(0, int64(s.NumAtoms()))
	return t.queue.Push(s)
}

// Snapshot returns the latest published model snapshot; never nil after
// Start.  Readers use Snapshot().Model freely and concurrently.
func (t *Trainer) Snapshot() *ModelSnapshot { return t.snap.Load() }

// Start publishes the initial snapshot and launches the trainer loop.
func (t *Trainer) Start() {
	if !t.started.CompareAndSwap(false, true) {
		return
	}
	t.publish()
	go t.loop()
}

// Stop shuts the trainer down gracefully: the queue closes (rejecting new
// frames), the loop finishes its in-flight step and drains already-queued
// frames through the gate into the replay buffer, a final snapshot is
// published and — when CheckpointPath is set — a final checkpoint written.
// ctx bounds the wait for the loop to finish.
func (t *Trainer) Stop(ctx context.Context) error {
	if !t.started.Load() {
		return fmt.Errorf("online: Stop before Start")
	}
	t.stopOnce.Do(func() {
		t.queue.Close()
		close(t.stop)
	})
	select {
	case <-t.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The loop has exited: this goroutine now owns the training state.
	t.publish()
	if t.cfg.CheckpointPath != "" {
		return t.writeCheckpoint(t.cfg.CheckpointPath)
	}
	return nil
}

// CheckpointNow asks the running trainer loop to write a checkpoint to
// CheckpointPath between steps and waits for the result.
func (t *Trainer) CheckpointNow(ctx context.Context) error {
	if t.cfg.CheckpointPath == "" {
		return fmt.Errorf("online: no CheckpointPath configured")
	}
	reply := make(chan error, 1)
	select {
	case t.ckReq <- reply:
	case <-t.loopDone:
		return t.WriteCheckpoint(t.cfg.CheckpointPath)
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the trainer goroutine: drain → gate → replay → step → publish.
func (t *Trainer) loop() {
	defer close(t.loopDone)
	for {
		select {
		case <-t.stop:
			// graceful drain: everything still queued flows through the
			// gate into the replay buffer so the final checkpoint sees it.
			for {
				s, ok := t.queue.Pop(0)
				if !ok {
					return
				}
				t.admit(s)
			}
		case reply := <-t.ckReq:
			reply <- t.writeCheckpointCounted(t.cfg.CheckpointPath)
			continue
		default:
		}

		// 1. drain whatever is queued right now
		got := 0
		for {
			s, ok := t.queue.Pop(0)
			if !ok {
				break
			}
			t.admit(s)
			got++
		}
		ready := t.replay.Len() >= t.cfg.MinFrames
		if got == 0 && !(t.cfg.TrainIdle && ready) {
			// nothing to do yet: wait briefly for a frame
			if s, ok := t.queue.Pop(t.cfg.PollInterval); ok {
				t.admit(s)
				got++
				ready = t.replay.Len() >= t.cfg.MinFrames
			}
		}

		// 2. one optimizer step when there is material to learn from
		if ready && (got > 0 || t.cfg.TrainIdle) {
			t.step()
		}
	}
}

// admit runs one frame through the gate into the replay buffer, updating
// the mirrored stats counters.
func (t *Trainer) admit(s dataset.Snapshot) {
	if t.cfg.Trace != nil && t.rec == nil {
		t.rec = t.cfg.Trace.Begin()
	}
	a0 := time.Now()
	defer func() { t.rec.Span(-1, "ingest_admit", a0, time.Since(a0)) }()
	scratch := &dataset.Dataset{System: t.system, Species: t.species, Snapshots: []dataset.Snapshot{s}}
	g0 := time.Now()
	ok, _, err := t.gate.Admit(t.model, t.opt.PDiagonal(), scratch, 0)
	t.rec.Span(-1, "gate", g0, time.Since(g0))
	if err != nil {
		t.setErr(fmt.Errorf("gate: %w", err))
		return
	}
	t.gateEMA.Store(math.Float64bits(t.gate.EMA()))
	if !ok {
		t.gatedOut.Add(1)
		return
	}
	t.replay.Add(s)
	t.accepted.Add(1)
	t.replayLen.Store(int64(t.replay.Len()))
	t.replayWin.Store(int64(t.replay.WindowLen()))
	t.replayRes.Store(int64(t.replay.ReservoirLen()))
	t.seen.Store(t.replay.Seen())
}

// step draws one replay minibatch and advances the optimizer, publishing
// snapshots and periodic checkpoints on schedule.
func (t *Trainer) step() {
	if t.cfg.Trace != nil && t.rec == nil {
		t.rec = t.cfg.Trace.Begin()
	}
	rec := t.rec
	s0 := time.Now()
	batch := t.replay.Sample(t.cfg.BatchSize)
	rec.Span(-1, "sample", s0, time.Since(s0))
	if len(batch) == 0 {
		return
	}
	ds := &dataset.Dataset{System: t.system, Species: t.species, Snapshots: batch}
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	k0 := time.Now()
	info, err := t.stepper.Step(ds, idx)
	stepDur := time.Since(k0)
	rec.Span(-1, "step", k0, stepDur)
	if m := t.cfg.Metrics; m != nil {
		m.StepSeconds.Observe(stepDur.Seconds())
	}
	if err != nil {
		t.setErr(fmt.Errorf("step: %w", err))
		rec.End(t.steps.Load())
		t.rec = nil
		return
	}
	n := t.steps.Add(1)
	t.maybePoison(n)
	t.lambdaBits.Store(math.Float64bits(t.opt.Lambda()))
	t.pBytes.Store(t.opt.PBytes())
	if ev := t.checkHealth(n, info); ev != nil {
		// Divergence: record it and roll back to the newest valid
		// checkpoint generation before anything downstream (snapshot
		// publish, checkpoint write, OnStep) can observe or persist the
		// poisoned state.
		t.handleDivergence(n, ev, rec)
		rec.End(n)
		t.rec = nil
		return
	}
	if t.cfg.OnStep != nil {
		t.cfg.OnStep(n, info)
	}
	if n%int64(t.cfg.SnapshotEvery) == 0 {
		p0 := time.Now()
		t.publish()
		rec.Span(-1, "snapshot_publish", p0, time.Since(p0))
	}
	if t.cfg.CheckpointEvery > 0 && t.cfg.CheckpointPath != "" && n%int64(t.cfg.CheckpointEvery) == 0 {
		c0 := time.Now()
		if err := t.writeCheckpointCounted(t.cfg.CheckpointPath); err != nil {
			t.setErr(fmt.Errorf("checkpoint: %w", err))
		}
		rec.Span(-1, "checkpoint", c0, time.Since(c0))
	}
	rec.End(n)
	t.rec = nil
}

// publish swaps in a fresh copy-on-write snapshot.  Called from the loop
// goroutine (or from Start/Stop while the loop is not running), so the
// clone always sees a quiescent weight set.
func (t *Trainer) publish() {
	t.snap.Store(&ModelSnapshot{
		Model:     t.model.Clone(),
		Step:      t.steps.Load(),
		Lambda:    t.opt.Lambda(),
		Published: time.Now(),
	})
}

func (t *Trainer) writeCheckpointCounted(path string) error {
	c0 := time.Now()
	err := t.writeCheckpoint(path)
	if m := t.cfg.Metrics; m != nil {
		m.CheckpointSeconds.Observe(time.Since(c0).Seconds())
	}
	if err == nil {
		t.ckWrites.Add(1)
	}
	return err
}

func (t *Trainer) setErr(err error) {
	s := err.Error()
	t.lastErr.Store(&s)
}

// Stats is the observable state of the trainer, served at /v1/stats.
type Stats struct {
	System        string  `json:"system"`
	Steps         int64   `json:"steps"`
	Lambda        float64 `json:"lambda"`
	KalmanUpdates int64   `json:"kalman_updates"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	// QueueOccupancy is the filled fraction of the ingest queue capacity
	// (summed across replicas for a fleet) — the queue-pressure signal
	// the fleet autoscaler keys on.
	QueueOccupancy float64 `json:"queue_occupancy"`
	FramesQueued   int64   `json:"frames_queued"`
	FramesDropped  int64   `json:"frames_dropped"`
	FramesGatedOut int64   `json:"frames_gated_out"`
	FramesAccepted int64   `json:"frames_accepted"`
	FramesSeen     int64   `json:"frames_seen"`
	GateEMA        float64 `json:"gate_ema"`
	// GateAcceptRate is the fraction of gate-scored frames admitted so far
	// (accepted / (accepted + gated out); 0 before any frame arrives).
	GateAcceptRate float64 `json:"gate_accept_rate"`
	ReplaySize     int64   `json:"replay_size"`
	// Replay-buffer occupancy: window and reservoir fill, the combined
	// capacity, and the filled fraction of that capacity.
	ReplayWindowLen    int64   `json:"replay_window_len"`
	ReplayReservoirLen int64   `json:"replay_reservoir_len"`
	ReplayCapacity     int64   `json:"replay_capacity"`
	ReplayOccupancy    float64 `json:"replay_occupancy"`
	SnapshotStep       int64   `json:"snapshot_step"`
	SnapshotAgeMs      int64   `json:"snapshot_age_ms"`
	Checkpoints        int64   `json:"checkpoints_written"`
	// PResidentBytes is the resident Kalman covariance footprint (summed
	// across replicas for a fleet; each replica holds the full P when
	// replicated, only its owned row slabs under covariance sharding) —
	// the same quantity the fekf_p_resident_bytes gauge exports.
	PResidentBytes int64  `json:"p_resident_bytes"`
	LastError      string `json:"last_error,omitempty"`
	// Guard is the self-healing ledger (nil when neither the sentinel nor
	// the checkpoint ring is configured): divergence/rollback/watchdog
	// counts, the degraded flag /healthz keys on, and the checkpoint-ring
	// generation and age.
	Guard *guard.Status `json:"guard,omitempty"`
}

// Stats returns a consistent-enough view assembled from atomics; safe from
// any goroutine.
func (t *Trainer) Stats() Stats {
	st := Stats{
		System:         t.system,
		Steps:          t.steps.Load(),
		Lambda:         math.Float64frombits(t.lambdaBits.Load()),
		KalmanUpdates:  t.steps.Load() * int64(1+t.forceGroups),
		QueueDepth:     t.queue.Depth(),
		QueueCapacity:  t.queue.Cap(),
		FramesQueued:   t.queue.Pushed(),
		FramesDropped:  t.queue.Dropped(),
		FramesGatedOut: t.gatedOut.Load(),
		FramesAccepted: t.accepted.Load(),
		FramesSeen:     t.seen.Load(),
		GateEMA:        math.Float64frombits(t.gateEMA.Load()),
		ReplaySize:     t.replayLen.Load(),

		ReplayWindowLen:    t.replayWin.Load(),
		ReplayReservoirLen: t.replayRes.Load(),
		ReplayCapacity:     t.replayCap.Load(),
		Checkpoints:        t.ckWrites.Load(),
		PResidentBytes:     t.pBytes.Load(),
	}
	if st.ReplayCapacity > 0 {
		st.ReplayOccupancy = float64(st.ReplaySize) / float64(st.ReplayCapacity)
	}
	if st.QueueCapacity > 0 {
		st.QueueOccupancy = float64(st.QueueDepth) / float64(st.QueueCapacity)
	}
	if scored := st.FramesAccepted + st.FramesGatedOut; scored > 0 {
		st.GateAcceptRate = float64(st.FramesAccepted) / float64(scored)
	}
	if s := t.snap.Load(); s != nil {
		st.SnapshotStep = s.Step
		st.SnapshotAgeMs = time.Since(s.Published).Milliseconds()
	}
	if e := t.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	if t.ring != nil || t.sentinel != nil {
		st.Guard = t.health.Status(time.Now())
	}
	return st
}
