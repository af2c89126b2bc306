package stream

import (
	"time"

	"fekf/internal/deepmd"
	"fekf/internal/guard"
)

// ModelSnapshot is one published copy-on-write view of a trainer: an
// immutable deep copy of the model plus the schedule position it was taken
// at.  Readers run forwards on Model concurrently; nothing here is ever
// mutated after publication.
type ModelSnapshot struct {
	Model     *deepmd.Model
	Step      int64
	Lambda    float64
	Published time.Time
}

// Stats is the observable state of a training backend, served at
// /v1/stats.
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
	// replicated, only its owned row slabs under covariance sharding, and
	// none before its first step) — the same quantity the
	// fekf_p_resident_bytes gauge exports.
	PResidentBytes int64  `json:"p_resident_bytes"`
	LastError      string `json:"last_error,omitempty"`
	// Guard is the self-healing ledger (nil when neither the sentinel nor
	// the checkpoint ring is configured): divergence/rollback/watchdog
	// counts, the degraded flag /healthz keys on, and the checkpoint-ring
	// generation and age.
	Guard *guard.Status `json:"guard,omitempty"`
}
