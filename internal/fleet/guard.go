package fleet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/optimize"
)

// This file is the fleet half of the self-healing layer: the step watchdog,
// the chaos injectors, the post-step sentinel check, and the fleet-wide
// rollback that restores every replica (and the covariance shards under
// PShard) bitwise from the newest valid checkpoint generation.  Everything
// here runs on the conductor goroutine except buildInject's returned
// closure, which runs on a rank goroutine and touches only its own
// arguments.

// buildInject composes the per-rank step injection: the failStep test seam,
// the chaos hang, and — whenever the watchdog is armed — a progress marker
// so a stall can be attributed to the rank that never reached the
// collective.  Returns nil when there is nothing to inject (the fast path).
func (f *Fleet) buildInject(id int, stepNo int64, hangID int, hangCh chan struct{}, prog *atomic.Int32) func() error {
	fail := f.failStep
	hung := hangCh != nil && id == hangID
	if fail == nil && !hung && f.cfg.StepTimeout <= 0 {
		return nil
	}
	return func() error {
		if hung {
			// Park until the watchdog aborts the step and releases us.  The
			// inject error only deactivates this rank (it still runs the
			// collectives on the now-broken ring), so the hang surfaces in
			// the step error through the watchdog's abort cause, not this
			// return value.
			<-hangCh
			return fmt.Errorf("replica %d: %w", id, guard.ErrHungRank)
		}
		prog.Store(1)
		if fail != nil {
			return fail(id, stepNo)
		}
		return nil
	}
}

// awaitStep waits for every rank goroutine of one collective step, with the
// watchdog deadline armed when StepTimeout is configured: on expiry the
// least-advanced rank's transport is aborted — releasing every rank blocked
// in the collective with ErrRingBroken and marking the stuck rank dead, so
// the caller's existing recovery path kills it and reconciles the
// survivors — and a parked chaos hang is released.  Conductor only.
func (f *Fleet) awaitStep(wg *sync.WaitGroup, ring *cluster.Ring, live []int, stepNo int64, progress []atomic.Int32, hangCh chan struct{}) {
	if f.cfg.StepTimeout <= 0 {
		wg.Wait()
		return
	}
	stepDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(stepDone)
	}()
	select {
	case <-stepDone:
	case <-f.clock.After(f.cfg.StepTimeout):
		stuck := -1
		for k := range progress {
			if p := progress[k].Load(); p < 2 && (stuck < 0 || p < progress[stuck].Load()) {
				stuck = k
			}
		}
		if stuck < 0 {
			// The step completed in the race window between the wait and
			// the timer; nothing is stuck.
			<-stepDone
			return
		}
		cause := fmt.Errorf("fleet: step %d watchdog: rank %d (replica %d) stuck after %v",
			stepNo+1, stuck, live[stuck], f.cfg.StepTimeout)
		ring.Transport().Abort(stuck, cause)
		if hangCh != nil {
			close(hangCh)
		}
		f.health.NoteWatchdog(stepNo + 1)
		f.rec.Span(-1, "watchdog_abort", f.clock.Now(), 0)
		<-stepDone
	}
}

// maybePoison applies the configured chaos weight poison after step n: the
// same non-finite delta lands on every live replica — modeling a poisoned
// reduced gradient, which under the funnel schedule reaches all ranks
// identically, so the bitwise drift invariant still holds over the broken
// state.  One-shot: the re-run after rollback proceeds clean.
func (f *Fleet) maybePoison(n int64, live []int) {
	c := f.cfg.Chaos
	if f.poisoned || c.PoisonStep == 0 || n != c.PoisonStep {
		return
	}
	f.poisoned = true
	for _, id := range live {
		r := f.reps[id]
		delta := make([]float64, r.model.NumParams())
		idx := c.PoisonIndex
		if idx < 0 || idx >= len(delta) {
			idx = 0
		}
		delta[idx] = c.PoisonValue()
		r.model.Params.AddFlat(delta)
	}
}

// checkHealth runs the sentinel over the post-step fleet state (the first
// live replica stands in for all — the drift invariant makes them
// identical), returning the divergence event if an invariant broke.
func (f *Fleet) checkHealth(n int64, live []int, infos []optimize.StepInfo) *guard.DivergenceEvent {
	if f.sentinel == nil {
		return nil
	}
	ref := f.reps[live[0]]
	smp := guard.Sample{
		Lambda:  math.Float64frombits(f.lambdaBits.Load()),
		Weights: ref.model.Params.FlattenValues(),
		Aux:     []float64{infos[0].EnergyABE, infos[0].ForceABE},
	}
	if f.cfg.PShard {
		if st := f.pstates[live[0]]; st != nil {
			smp.PDiag = st.PDiagonalOwned()
		}
	} else {
		smp.PDiag = ref.opt.PDiagonal()
	}
	if ev := f.sentinel.Check(n, smp); ev != nil {
		return ev
	}
	f.health.NoteHealthy()
	return nil
}

// handleDivergence records a sentinel event and rolls the fleet back to the
// newest valid checkpoint generation.  A failed rollback (no ring, no valid
// generation) leaves the event in last_error and the fleet degraded;
// training continues from the diverged state rather than crashing the
// conductor, so operators can still drain and inspect it.
func (f *Fleet) handleDivergence(ev *guard.DivergenceEvent, rec *obs.StepRecorder) {
	f.health.NoteDivergence(ev)
	f.setErr(ev)
	r0 := time.Now()
	err := f.rollbackLocked()
	rec.Span(-1, "rollback", r0, time.Since(r0))
	if err != nil {
		f.setErr(fmt.Errorf("guard: rollback after %v: %w", ev, err))
	}
}

// rollbackLocked restores the newest valid ring generation across the whole
// fleet: the in-flight ring is retired (aborting anything still on the
// wire), every replica gets the checkpointed shared model + filter bitwise,
// private replay buffers and gates rewind to their checkpointed positions,
// and under PShard the covariance slabs are retiled from the checkpoint.
// Quarantined generations are counted in the health ledger.  Conductor
// only.
func (f *Fleet) rollbackLocked() error {
	if f.ckRing == nil {
		return fmt.Errorf("fleet: no checkpoint ring to roll back to (set CheckpointKeep)")
	}
	f.retireRing()
	seq, payload, quarantined, err := f.ckRing.LoadNewest()
	f.health.NoteQuarantine(len(quarantined))
	if err != nil {
		return err
	}
	ck, err := DecodeCheckpoint(payload)
	if err != nil {
		return fmt.Errorf("fleet: decode checkpoint generation %d: %w", seq, err)
	}
	if err := f.applyCheckpoint(ck); err != nil {
		return err
	}
	if f.sentinel != nil {
		f.sentinel.Reset()
	}
	f.health.NoteRollback(seq, ck.Steps)
	f.health.NoteCheckpoint(seq, f.clock.Now())
	return nil
}

// applyCheckpoint restores a fleet checkpoint in place — the same
// restoration Resume performs on a fresh fleet, against the live structure.
// Conductor only.
func (f *Fleet) applyCheckpoint(ck *Checkpoint) error {
	if len(ck.Replicas) != len(f.reps) {
		return fmt.Errorf("fleet: checkpoint has %d replicas, fleet has %d", len(ck.Replicas), len(f.reps))
	}
	if ck.Opt == nil {
		return fmt.Errorf("fleet: checkpoint has no optimizer state")
	}
	if ck.PShard != f.cfg.PShard {
		return fmt.Errorf("fleet: checkpoint pshard=%v, fleet pshard=%v", ck.PShard, f.cfg.PShard)
	}
	for i, rck := range ck.Replicas {
		r := f.reps[i]
		if rck.ID != r.id {
			return fmt.Errorf("fleet: checkpoint replica %d has id %d", i, rck.ID)
		}
		if err := r.restoreShared(ck.Model, ck.Opt); err != nil {
			return err
		}
		r.restorePrivate(rck, f.cfg.Gate)
	}
	f.naPer.Store(ck.NumAtoms)
	f.steps.Store(ck.Steps)
	f.rr.Store(ck.RR)
	live := f.liveIDs()
	if len(live) == 0 {
		return fmt.Errorf("fleet: checkpoint has no live replica")
	}
	if f.cfg.PShard {
		if ck.PCk == nil {
			return fmt.Errorf("fleet: sharded checkpoint has no covariance slabs")
		}
		if err := f.restoreShards(ck.PCk, live); err != nil {
			return err
		}
		f.lambdaBits.Store(math.Float64bits(ck.PCk.Lambda))
	} else {
		f.lambdaBits.Store(math.Float64bits(f.reps[live[0]].opt.Lambda()))
	}
	// Republish clean snapshots at the restored step so the predict tier
	// never serves the diverged weights.
	step := f.steps.Load()
	for _, id := range live {
		f.reps[id].publish(step)
	}
	f.updateInvariants(live)
	return nil
}
