package pshard

import (
	"fmt"

	"fekf/internal/cluster"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/optimize"
)

// RankStep executes one rank's role in a covariance-sharded FEKF step: the
// shared funnel schedule (optimize.FunnelStep) — local backward, ring
// allreduce of gradient/ABE partials, count-gated measurements, pipelined
// drains — with the rank's P slabs as the covariance backend (see
// Measure), so the weights stay bit-identical to the unsharded filter.
func RankStep(ring *cluster.Ring, rank int, m *deepmd.Model, st *State, p cluster.StepParams, ds *dataset.Dataset, idx []int, inject func() error) (optimize.StepInfo, error) {
	return optimize.FunnelStep(ring.Reducer(rank), rank, m, ringState{st, ring, rank}, p, ds, idx, inject)
}

// ringState is a rank's sharded state bound to the ring its exchange
// collective runs over.
type ringState struct {
	st   *State
	ring *cluster.Ring
	rank int
}

// Measure implements optimize.Covariance: the rank computes its owned
// P·g rows, allgathers the rest from the other owners (the "exchange"
// collective absent from the replicated step), then finishes the update
// — a, K, Δw, λ — from the now-identical full P·g, so every rank applies
// the same increment.  The drain refreshes only the owned slabs.  A
// broken exchange leaves the measurement unapplied (GainOwned writes
// only scratch) and the error wraps cluster.ErrRingBroken.
func (rs ringState) Measure(g []float64, abe, scale float64, ph *optimize.Phases) ([]float64, func(), error) {
	pg := rs.st.GainOwned(g)
	ph.Span("gain")
	ph.Mark()
	if err := rs.ring.AllgatherSegments(rs.rank, pg, rs.st.Segments()); err != nil {
		return nil, nil, fmt.Errorf("exchange: %w", err)
	}
	ph.Span("exchange")
	ph.Mark()
	delta, drain := rs.st.FinishUpdate(g, abe, scale)
	return delta, drain, nil
}
