// Package serve exposes the online trainer over a net/http JSON API:
// labelled-frame ingest, micro-batched energy/force prediction from the
// latest published model snapshot, health and stats.  See DESIGN.md,
// "Online-learning subsystem".
package serve

import (
	"fmt"
	"math"

	"fekf/internal/dataset"
	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/stream"
)

// FramePayload is one labelled configuration posted to /v1/frames.
type FramePayload struct {
	Pos         []float64  `json:"pos"`   // 3N coordinates, Å
	Box         [3]float64 `json:"box"`   // orthorhombic box, Å
	Types       []int      `json:"types"` // species index per atom
	Energy      float64    `json:"energy"`
	Forces      []float64  `json:"forces"`
	Temperature float64    `json:"temperature,omitempty"`
}

// Snapshot converts the payload to a dataset frame.
func (p *FramePayload) Snapshot() dataset.Snapshot {
	return dataset.Snapshot{
		Pos:         p.Pos,
		Box:         p.Box,
		Types:       p.Types,
		Energy:      p.Energy,
		Forces:      p.Forces,
		Temperature: p.Temperature,
	}
}

// FramesRequest is the /v1/frames body: one or more labelled frames.
type FramesRequest struct {
	Frames []FramePayload `json:"frames"`
}

// FramesResponse reports the ingest outcome.
type FramesResponse struct {
	Accepted   int `json:"accepted"`
	Dropped    int `json:"dropped"` // rejected by queue policy (not errors)
	QueueDepth int `json:"queue_depth"`
}

// PredictRequest is the /v1/predict body: one unlabelled configuration.
type PredictRequest struct {
	Pos   []float64  `json:"pos"`
	Box   [3]float64 `json:"box"`
	Types []int      `json:"types"`
}

// Validate checks structural consistency of a prediction request.
func (r *PredictRequest) Validate() error {
	if len(r.Types) == 0 {
		return fmt.Errorf("no atoms")
	}
	if len(r.Pos) != 3*len(r.Types) {
		return fmt.Errorf("%d coordinates for %d atoms", len(r.Pos), len(r.Types))
	}
	for d, b := range r.Box {
		if !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("box dimension %d is %g", d, b)
		}
	}
	for i, x := range r.Pos {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("coordinate %d is %g", i, x)
		}
	}
	return nil
}

// PredictResponse carries the model prediction and its provenance.
type PredictResponse struct {
	Energy float64   `json:"energy"` // total energy, eV
	Forces []float64 `json:"forces"` // 3N components, eV/Å
	// SnapshotStep is the training step of the snapshot that answered.
	SnapshotStep int64 `json:"snapshot_step"`
	// Batch is the size of the micro-batch this request rode in.
	Batch int `json:"batch"`
}

// HealthResponse is the /healthz body.  Status is "ok", or "degraded"
// while the backend's self-healing guard reports a recent divergence,
// rollback or watchdog fire that enough healthy steps have not yet
// cleared (see Config.Degraded503 for the status-code policy).
type HealthResponse struct {
	Status       string        `json:"status"`
	System       string        `json:"system"`
	Steps        int64         `json:"steps"`
	SnapshotStep int64         `json:"snapshot_step"`
	Guard        *guard.Status `json:"guard,omitempty"`
}

// StatsResponse is the /v1/stats body: aggregated trainer stats plus
// server-side serving counters, and — when the backend is a fleet — the
// per-replica fleet view (health, queue depth, drift, snapshot age).
type StatsResponse struct {
	stream.Stats
	PredictRequests int64        `json:"predict_requests"`
	PredictBatches  int64        `json:"predict_batches"`
	FrameRequests   int64        `json:"frame_requests"`
	UptimeMs        int64        `json:"uptime_ms"`
	Fleet           *fleet.Stats `json:"fleet,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
