package optimize

import (
	"fmt"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// Settings are the FEKF hyper-parameters shared by the single-device
// optimizer and the distributed trainers; Params evaluates them into the
// per-step scalars of one funnel step.
type Settings struct {
	// KCfg holds the filter's block size, λ schedule and Opt3 kernels.
	KCfg KalmanConfig
	// Factor is the quasi-learning-rate rule (√bs by default; Figure 4
	// ablates 1 and bs).
	Factor QuasiLRFactor
	// ForceGroups is the number of sequential force measurement updates
	// per iteration (paper: 4).
	ForceGroups int
	// EnergyDiv and ForceDiv divide the energy and force measurement
	// errors fed to the filter, the trust-region damping knob of the
	// reference implementation (which divides both by the atom count,
	// matched to its 10k-70k-sample datasets).  The repo defaults —
	// √Na for energy, Na for force — reach the same optima in
	// proportionally fewer updates at this reproduction's dataset sizes.
	EnergyDiv, ForceDiv TrustDiv
	// Pipeline overlaps each measurement's covariance drain with the next
	// measurement's forward/backward and reduction (the two-stage
	// force-group pipeline); results are bitwise identical to the serial
	// order.  Defaults to PipelineDefault() (on unless FEKF_PIPELINE
	// disables it).
	Pipeline bool
}

// DefaultSettings returns the paper-default FEKF settings.
func DefaultSettings() Settings {
	return Settings{
		KCfg:        DefaultKalmanConfig(),
		Factor:      FactorSqrtBS,
		ForceGroups: 4,
		EnergyDiv:   DivSqrtAtoms,
		ForceDiv:    DivAtoms,
		Pipeline:    PipelineDefault(),
	}
}

// Params evaluates the step scalars for a global batch of bs frames of na
// atoms each.  Every rank of a distributed step must run with the same
// StepParams, derived from the global batch rather than its local share.
func (s Settings) Params(bs, na int) StepParams {
	return StepParams{
		Scale:       s.Factor.Apply(bs),
		EnergyDiv:   s.EnergyDiv.Value(na),
		ForceDiv:    s.ForceDiv.Value(na),
		ForceGroups: s.ForceGroups,
		Pipeline:    s.Pipeline,
	}
}

// StepParams are the per-step scalars every rank of a funnel step must
// agree on, so ranks holding different local shares still apply identical
// Kalman updates.
type StepParams struct {
	// Scale is the quasi-learning-rate factor of the global batch.
	Scale float64
	// EnergyDiv and ForceDiv are the measurement-error divisors (already
	// evaluated for the system's atom count).
	EnergyDiv, ForceDiv float64
	// ForceGroups is the number of sequential force measurement updates.
	ForceGroups int
	// Pipeline overlaps each measurement's P drain with the next group's
	// backward and reduction (bitwise identical to the serial schedule).
	Pipeline bool
	// Spans, when non-nil, receives the step's phase timings (backward,
	// allreduce, gain, exchange, drain).  Nil costs one pointer check per
	// phase.
	Spans SpanSink
}

// SpanSink receives per-phase timings from a rank's step execution.
// Implemented by obs.StepRecorder; implementations must be safe for
// concurrent calls (ranks run concurrently and drains complete on
// background goroutines).
type SpanSink interface {
	Span(rank int, name string, start time.Time, dur time.Duration)
}

// Reducer sums a buffer element-wise, in place, across every rank taking
// part in the step.  A non-nil error means the collective broke and the
// buffer is in an unspecified partial state.
type Reducer interface {
	Allreduce(data []float64) error
}

// LocalReducer is the single-device reducer: one rank, nothing to sum.
type LocalReducer struct{}

// Allreduce implements Reducer.
func (LocalReducer) Allreduce([]float64) error { return nil }

// Covariance is a Kalman covariance backend.  Measure runs the gain stage
// of one measurement update from the reduced gradient g and error abe and
// returns the weight increment together with the deferred covariance
// drain (see KalmanState.UpdateSplit).  The schedule has marked ph before
// the call and closes the final "gain" span after applying the increment;
// a backend with intermediate phases closes and reopens its own spans.  A
// non-nil error means the measurement was not applied and no drain is
// pending.
type Covariance interface {
	Measure(g []float64, abe, scale float64, ph *Phases) (delta []float64, drain func(), err error)
}

// Measure implements Covariance for the dense replicated filter.
func (ks *KalmanState) Measure(g []float64, abe, scale float64, _ *Phases) ([]float64, func(), error) {
	delta, drain := ks.UpdateSplit(g, abe, scale)
	return delta, drain, nil
}

// Phases times one rank's step phases into a SpanSink.  With a nil sink
// every call is a pointer check.
type Phases struct {
	sink SpanSink
	rank int
	t0   time.Time
}

// Mark opens a phase.
func (ph *Phases) Mark() {
	if ph.sink != nil {
		ph.t0 = time.Now()
	}
}

// Span closes the phase opened by the last Mark under name.
func (ph *Phases) Span(name string) {
	if ph.sink != nil {
		ph.sink.Span(ph.rank, name, ph.t0, time.Since(ph.t0))
	}
}

// traced wraps a deferred covariance drain so its execution — on the
// background goroutine, or inline with the pipeline off — reports a
// "drain" span.
func (ph *Phases) traced(drain func()) func() {
	if ph.sink == nil {
		return drain
	}
	return func() {
		d0 := time.Now()
		drain()
		ph.sink.Span(ph.rank, "drain", d0, time.Since(d0))
	}
}

// FunnelStep executes one rank's role in an FEKF step (Algorithm 1, the
// funnel dataflow of Figure 3(b)): build the local environment, reduce the
// energy gradient and error partials with red, apply one energy
// measurement update through cov, then one forward with the post-update
// weights and ForceGroups sequential force measurement updates, each on
// reduced partials.  The single device is the one-rank case with
// LocalReducer.
//
// ds/idx are this rank's share of the global batch.  A nil ds or empty idx
// means the rank contributes zero partials but still runs every collective
// and applies the reduced updates, as does a rank whose environment build
// (or inject, a failure hook the consistency tests use) fails; that error
// is returned after the step completes.  Each measurement is gated on its
// reduced count: a measurement no rank contributed to — a step with no
// live share, or a force group with no components (3·B·Na < ForceGroups)
// — makes no update, so λ and P advance only on real measurements and
// every rank agrees on which updates (and backend collectives) run.
//
// With p.Pipeline each update's covariance drain runs on a background
// goroutine while the next group's backward and reduction execute.  The
// drain is joined before the next Measure reads the covariance, and the
// next backward differentiates against the weights the previous update
// produced, so the pipelined step is bitwise identical to the serial one.
// A broken collective aborts the step: the partially reduced buffer is
// dropped, the in-flight drain is joined and the graph released, so the
// last completed measurement's state stands.
func FunnelStep(red Reducer, rank int, m *deepmd.Model, cov Covariance, p StepParams, ds *dataset.Dataset, idx []int, inject func() error) (info StepInfo, err error) {
	var env *deepmd.Env
	var lab *deepmd.Labels
	if ds != nil && len(idx) > 0 {
		env, err = deepmd.BuildBatchEnv(m.Cfg, ds, idx)
		if err == nil && inject != nil {
			err = inject()
		}
		if err == nil {
			lab = deepmd.BatchLabels(ds, idx)
		}
	}

	ph := &Phases{sink: p.Spans, rank: rank}
	wait := func() {}
	var out *deepmd.Output
	defer func() {
		wait()
		if out != nil {
			out.Graph.Release()
		}
	}()

	// buf carries [gradient | Σ|error| | count] through each reduction.
	// No drain reads it, so one buffer serves every measurement.
	nParams := m.Params.NumParams()
	buf := make([]float64, nParams+2)
	reduce := func() error {
		ph.Span("backward")
		ph.Mark()
		if err := red.Allreduce(buf); err != nil {
			return err
		}
		ph.Span("allreduce")
		return nil
	}
	// update applies the reduced measurement in buf, if any rank
	// contributed to it, after joining the previous drain.
	update := func(div float64) (float64, error) {
		if buf[nParams+1] == 0 {
			return 0, nil
		}
		abe := buf[nParams] / (buf[nParams+1] * div)
		wait()
		ph.Mark()
		delta, drain, merr := cov.Measure(buf[:nParams], abe, p.Scale, ph)
		if merr != nil {
			return 0, merr
		}
		m.Params.AddFlat(delta)
		ph.Span("gain")
		wait = StartDrain(ph.traced(drain), p.Pipeline)
		return abe, nil
	}

	// ---- energy update.  With the pipeline on, its drain overlaps the
	// force forward pass below.
	ph.Mark()
	if lab != nil {
		out = m.Forward(env, false)
		seedE, absSum := EnergySeed(out, lab)
		copy(buf, m.EnergyGrad(out, seedE))
		buf[nParams], buf[nParams+1] = absSum, float64(len(idx))
	}
	if cerr := reduce(); cerr != nil {
		return StepInfo{}, fmt.Errorf("energy allreduce: %w", cerr)
	}
	eABE, cerr := update(p.EnergyDiv)
	if cerr != nil {
		return StepInfo{}, fmt.Errorf("energy update: %w", cerr)
	}
	if out != nil {
		out.Graph.Release()
		out = nil
	}

	// ---- force updates: one forward with the post-energy-update weights,
	// then the sequential group measurements.  The group gradients come
	// from this single graph (weights as of the forward), the standard
	// approximation of the reference implementation.
	fErr := make([]float64, 2) // Σ|ΔF| and component count, for StepInfo
	ph.Mark()
	if lab != nil {
		out = m.Forward(env, true)
		sum, count := ForceErrorSum(out, lab)
		fErr[0], fErr[1] = sum, float64(count)
	}
	ph.Span("backward")
	for grp := 0; grp < p.ForceGroups; grp++ {
		ph.Mark()
		clear(buf)
		if out != nil {
			seedF, fSum, count := ForceSeed(out, lab, grp, p.ForceGroups)
			copy(buf, m.ForceGrad(out, seedF))
			buf[nParams], buf[nParams+1] = fSum, float64(count)
		}
		if cerr := reduce(); cerr != nil {
			return StepInfo{EnergyABE: eABE}, fmt.Errorf("force group %d allreduce: %w", grp, cerr)
		}
		if _, cerr := update(p.ForceDiv); cerr != nil {
			return StepInfo{EnergyABE: eABE}, fmt.Errorf("force group %d update: %w", grp, cerr)
		}
	}

	// ---- reduce the force-error diagnostic so StepInfo.ForceABE is the
	// batch-global mean absolute force-component error.  It overlaps the
	// last group's drain, joined on return.
	ph.Mark()
	if cerr := red.Allreduce(fErr); cerr != nil {
		return StepInfo{EnergyABE: eABE}, fmt.Errorf("force-error allreduce: %w", cerr)
	}
	ph.Span("allreduce")
	info = StepInfo{EnergyABE: eABE}
	if fErr[1] > 0 {
		info.ForceABE = fErr[0] / fErr[1]
	}
	return info, err
}
