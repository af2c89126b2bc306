package online

import (
	"context"
	"fmt"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/fleet"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/optimize"
	"fekf/internal/stream"
)

// Names of the single-trainer API.  TrainerConfig is the fleet
// configuration with Replicas 0 or 1 and Autoscale off.
type (
	TrainerConfig = fleet.Config
	Metrics       = fleet.Metrics
	GateConfig    = stream.GateConfig
	ModelSnapshot = stream.ModelSnapshot
)

// Block is the backpressure queue policy (see stream.Block).
const Block = stream.Block

// DefaultGateConfig returns the gating defaults (see
// stream.DefaultGateConfig).
func DefaultGateConfig() GateConfig { return stream.DefaultGateConfig() }

// LoadCheckpoint reads a checkpoint file (see fleet.LoadCheckpoint).
func LoadCheckpoint(path string) (*fleet.Checkpoint, error) { return fleet.LoadCheckpoint(path) }

// NewMetrics registers the trainer's metric families on reg:
// fekf_train_step_seconds and fekf_train_checkpoint_seconds.  The fleet's
// membership and autoscale counters count into unregistered values, so
// the trainer's exposition keeps its two families.  Register at most once
// per registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		StepSeconds: reg.Histogram("fekf_train_step_seconds",
			"Wall time of one online FEKF optimizer step.",
			obs.DefSecondsBuckets).With(),
		CheckpointSeconds: reg.Histogram("fekf_train_checkpoint_seconds",
			"Wall time of one combined model+optimizer checkpoint write.",
			obs.DefSecondsBuckets).With(),
		Kills:          new(obs.Counter),
		Revives:        new(obs.Counter),
		AutoscaleEvals: new(obs.Counter),
		ScaleUps:       new(obs.Counter),
		ScaleDowns:     new(obs.Counter),
	}
}

// Trainer is the single online trainer: a one-replica fleet.Fleet behind
// the serving surface.  It leaves out FleetStats, so /v1/stats carries no
// per-replica fleet row.
type Trainer struct {
	f *fleet.Fleet
}

func checkSingle(cfg TrainerConfig) error {
	if cfg.Replicas > 1 {
		return fmt.Errorf("online: a single trainer has one replica, not %d", cfg.Replicas)
	}
	if cfg.Autoscale.Enabled {
		return fmt.Errorf("online: a single trainer does not autoscale")
	}
	return nil
}

// NewTrainer builds a trainer around an initialized model (normalization
// and energy bias set) and a FEKF optimizer, both cloned into the
// replica.  proto supplies the system name and species table every
// streamed frame must match; if it carries snapshots, they fix the
// expected atom count (otherwise the first ingested frame does).
func NewTrainer(m *deepmd.Model, opt *optimize.FEKF, proto *dataset.Dataset, cfg TrainerConfig) (*Trainer, error) {
	if err := checkSingle(cfg); err != nil {
		return nil, err
	}
	f, err := fleet.New(m, opt, proto, cfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{f: f}, nil
}

// ResumeTrainer reconstructs a trainer from a one-replica checkpoint —
// including one written by the single trainer before it became a fleet of
// one.  Weights, optimizer (λ, update counter, P blocks — bitwise), replay
// buffer and gate all resume where the checkpointed trainer stopped.
func ResumeTrainer(ck *fleet.Checkpoint, cfg TrainerConfig) (*Trainer, error) {
	if len(ck.Replicas) > 1 {
		return nil, fmt.Errorf("online: checkpoint holds %d replicas; resume it with fleet.Resume", len(ck.Replicas))
	}
	if err := checkSingle(cfg); err != nil {
		return nil, err
	}
	f, err := fleet.Resume(ck, cfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{f: f}, nil
}

// Start publishes the initial snapshot and launches the trainer loop.
func (t *Trainer) Start() { t.f.Start() }

// Stop drains queued frames, publishes a final snapshot and, with a
// CheckpointPath, writes a final checkpoint (see fleet.Fleet.Stop).
func (t *Trainer) Stop(ctx context.Context) error { return t.f.Stop(ctx) }

// Ingest validates and queues one labelled frame (false without error
// means dropped by queue policy).
func (t *Trainer) Ingest(s dataset.Snapshot) (bool, error) { return t.f.Ingest(s) }

// ValidateFrame checks a frame against the trainer's model configuration
// and atom count without queueing it.
func (t *Trainer) ValidateFrame(s *dataset.Snapshot) error { return t.f.ValidateFrame(s) }

// Snapshot returns the latest published model snapshot; never nil after
// Start.
func (t *Trainer) Snapshot() *ModelSnapshot { return t.f.Snapshot() }

// Species returns the species table frames and predictions must use.
func (t *Trainer) Species() []md.Species { return t.f.Species() }

// Stats returns the observable trainer state; safe from any goroutine.
func (t *Trainer) Stats() stream.Stats { return t.f.Stats() }

// CheckpointNow writes a checkpoint to CheckpointPath between steps and
// waits for the result.
func (t *Trainer) CheckpointNow(ctx context.Context) error { return t.f.CheckpointNow(ctx) }
