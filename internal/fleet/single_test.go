package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/guard"
	"fekf/internal/obs"
	"fekf/internal/optimize"
	"fekf/internal/stream"
)

// These tests drive a fleet of one replica — the single online trainer —
// through the paths the single trainer had before it became a fleet: the
// conductor's admit/step/publish run inline, exactly as the loop runs
// them.

// assertOneBitwise fails unless two one-replica fleets hold bitwise-
// identical weights, λ, update counters and P blocks.
func assertOneBitwise(t *testing.T, a, b *Fleet, when string) {
	t.Helper()
	assertFleetsBitwise(t, a, b, when)
	if ua, ub := a.reps[0].opt.Updates(), b.reps[0].opt.Updates(); ua != ub {
		t.Fatalf("%s: update counters differ: %d vs %d", when, ua, ub)
	}
}

// A published snapshot must be a fully isolated copy: training onward must
// never change it, and it must not alias the live training model.
func TestFleetOfOneSnapshotIsolation(t *testing.T) {
	ds, f := newTestFleet(t, 1, Config{Seed: 5, Gate: stream.GateConfig{Enabled: false}})
	r := f.reps[0]
	for i := 0; i < 4; i++ {
		f.admit(r, ds.Snapshots[i])
	}
	r.publish(f.Steps())
	snap := f.Snapshot()
	if snap.Model == r.model {
		t.Fatal("snapshot aliases the live training model")
	}
	frozen := append([]float64(nil), snap.Model.Params.FlattenValues()...)

	for i := 0; i < 3; i++ {
		f.step()
	}
	if f.Steps() != 3 {
		t.Fatalf("took %d steps, want 3 (last error %q)", f.Steps(), f.Stats().LastError)
	}
	after := snap.Model.Params.FlattenValues()
	for i := range frozen {
		if after[i] != frozen[i] {
			t.Fatalf("published snapshot weight %d changed during training", i)
		}
	}
	// the live model did move, and a new snapshot reflects that
	r.publish(f.Steps())
	snap2 := f.Snapshot()
	if snap2 == snap || snap2.Step != 3 {
		t.Fatalf("republish did not advance: step %d", snap2.Step)
	}
	moved := false
	for i, v := range snap2.Model.Params.FlattenValues() {
		if v != frozen[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("three optimizer steps left the weights bitwise unchanged")
	}
}

// Kill → restart from the checkpoint must resume the λ schedule and P
// bitwise, and the next identical step must produce identical weights.
func TestFleetOfOneCheckpointResumeBitwise(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "online.ckpt")
	cfg := Config{
		BatchSize: 2, MinFrames: 2, CheckpointPath: path, Seed: 9,
		Gate: stream.GateConfig{Enabled: false},
	}
	ds, f := newTestFleet(t, 1, cfg)
	for i := 0; i < 6; i++ {
		f.admit(f.reps[0], ds.Snapshots[i])
	}
	for i := 0; i < 4; i++ {
		f.step()
	}
	if err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir not clean: %v", entries)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Resume(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Steps() != 4 || f2.Stats().Steps != 4 {
		t.Fatalf("resumed at step %d, want 4", f2.Steps())
	}
	r1, r2 := f.reps[0], f2.reps[0]
	if r2.opt.Lambda() != r1.opt.Lambda() {
		t.Fatalf("resumed λ %v, want %v", r2.opt.Lambda(), r1.opt.Lambda())
	}
	if r2.opt.Updates() != r1.opt.Updates() {
		t.Fatalf("resumed update count %d, want %d", r2.opt.Updates(), r1.opt.Updates())
	}
	p1, p2 := r1.opt.PDiagonal(), r2.opt.PDiagonal()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("P diagonal %d differs after resume", i)
		}
	}
	w1 := r1.model.Params.FlattenValues()
	w2 := r2.model.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d differs after resume", i)
		}
	}
	if r2.replay.Seen() != r1.replay.Seen() || r2.replay.Len() != r1.replay.Len() {
		t.Fatal("replay buffer did not resume")
	}

	// the decisive check: one more IDENTICAL minibatch through both
	// filters must keep λ, P and every weight bitwise equal.
	idx := []int{0, 1}
	if _, err := r1.opt.Step(r1.model, ds, idx); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.opt.Step(r2.model, ds, idx); err != nil {
		t.Fatal(err)
	}
	if r1.opt.Lambda() != r2.opt.Lambda() {
		t.Fatalf("λ diverged on the first post-resume step: %v vs %v", r1.opt.Lambda(), r2.opt.Lambda())
	}
	w1, w2 = r1.model.Params.FlattenValues(), r2.model.Params.FlattenValues()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d diverged on the first post-resume step", i)
		}
	}
	p1, p2 = r1.opt.PDiagonal(), r2.opt.PDiagonal()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("P diverged on the first post-resume step at %d", i)
		}
	}
}

// A NaN poisoned into the weights at step 5 must trip the sentinel and roll
// the fleet of one back — bitwise — to the newest ring generation, after
// which it advances in lockstep with an uninjected twin resumed from that
// same generation.
func TestFleetOfOneGuardRollbackBitwiseTwin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	trace := obs.NewTracer(16)
	cfg := Config{
		BatchSize: 2, MinFrames: 2, Seed: 9,
		CheckpointPath: path, CheckpointEvery: 2, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true, SampleStride: 1},
		Chaos: guard.ChaosConfig{PoisonStep: 5},
		Gate:  stream.GateConfig{Enabled: false},
		Trace: trace,
	}
	ds, f := newTestFleet(t, 1, cfg)
	for i := 0; i < 6; i++ {
		f.admit(f.reps[0], ds.Snapshots[i])
	}
	for i := 0; i < 4; i++ {
		f.step()
	}
	// CheckpointEvery 2 → ring generations 1 (step 2) and 2 (step 4).
	ck, seq, quarantined, err := LoadNewestCheckpoint(path, 3)
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("load newest: seq=%d q=%v err=%v", seq, quarantined, err)
	}
	if seq != 2 || ck.Steps != 4 {
		t.Fatalf("newest generation seq=%d steps=%d, want 2/4", seq, ck.Steps)
	}
	twinCfg := cfg
	twinCfg.CheckpointPath, twinCfg.CheckpointEvery, twinCfg.CheckpointKeep = "", 0, 0
	twinCfg.Chaos = guard.ChaosConfig{}
	twinCfg.Trace = nil
	twin, err := Resume(ck, twinCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Step 5 poisons the weights; the sentinel must catch it and roll back.
	f.step()
	if got := f.Steps(); got != 4 {
		t.Fatalf("after rollback at step %d, want 4", got)
	}
	st := f.Stats()
	if st.Guard == nil {
		t.Fatal("Stats().Guard missing with sentinel enabled")
	}
	if st.Guard.Divergences != 1 || st.Guard.Rollbacks != 1 || !st.Guard.Degraded {
		t.Fatalf("guard status after divergence: %+v", st.Guard)
	}
	if st.Guard.LastReason != guard.ReasonWeightNonFinite || st.Guard.LastStep != 5 {
		t.Fatalf("divergence attribution: %+v", st.Guard)
	}
	if st.Guard.RollbackGeneration != 2 || st.Guard.RollbackStep != 4 {
		t.Fatalf("rollback target: %+v", st.Guard)
	}
	if !strings.Contains(st.LastError, guard.ReasonWeightNonFinite) {
		t.Fatalf("last error %q does not carry the divergence reason", st.LastError)
	}
	var sawRollbackSpan bool
	for _, str := range trace.Last(16) {
		for _, sp := range str.Spans {
			if sp.Name == "rollback" {
				sawRollbackSpan = true
			}
		}
	}
	if !sawRollbackSpan {
		t.Fatal("no rollback span in the step trace")
	}
	// The published snapshot was refreshed at the rolled-back step and is
	// clean — prediction availability never sees the poisoned weights.
	if snap := f.Snapshot(); snap.Step != 4 {
		t.Fatalf("post-rollback snapshot at step %d, want 4", snap.Step)
	}

	assertOneBitwise(t, f, twin, "after rollback")

	// The replay RNG resumed at the checkpointed position on both sides,
	// so the recovered fleet and the twin draw the same minibatches and
	// stay in bitwise lockstep. The chaos injection is one-shot: the
	// re-run of step 5 is clean.
	for i := 0; i < 2; i++ {
		f.step()
		twin.step()
	}
	if f.Steps() != 6 || twin.Steps() != 6 {
		t.Fatalf("post-recovery steps: %d vs %d, want 6", f.Steps(), twin.Steps())
	}
	if got := f.Stats().Guard.Divergences; got != 1 {
		t.Fatalf("re-run of the poisoned step diverged again: %d events", got)
	}
	assertOneBitwise(t, f, twin, "two steps past rollback")
}

// Loading must quarantine torn and bit-flipped generations with a typed
// error trail and fall back to the newest valid one, and a corrupt framed
// file must surface guard.ErrCorrupt, not an opaque gob error.
func TestFleetOfOneLoadNewestCheckpointQuarantinesAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	cfg := Config{
		BatchSize: 2, MinFrames: 2, Seed: 4,
		CheckpointPath: path, CheckpointEvery: 1, CheckpointKeep: 3,
		Gate: stream.GateConfig{Enabled: false},
	}
	ds, f := newTestFleet(t, 1, cfg)
	for i := 0; i < 4; i++ {
		f.admit(f.reps[0], ds.Snapshots[i])
	}
	for i := 0; i < 3; i++ {
		f.step()
	}
	ring := guard.NewRing(path, 3)
	// A valid framed generation loads through the plain single-file API too.
	if ck, err := LoadCheckpoint(ring.GenPath(1)); err != nil || ck.Steps != 1 {
		t.Fatalf("framed load: steps=%v err=%v", ck, err)
	}
	// Tear the newest write short and flip a payload byte in the second.
	if err := guard.Truncate(ring.GenPath(3), -7); err != nil {
		t.Fatal(err)
	}
	if err := guard.FlipByte(ring.GenPath(2), -3); err != nil {
		t.Fatal(err)
	}
	ck, seq, quarantined, err := LoadNewestCheckpoint(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || ck.Steps != 1 {
		t.Fatalf("fallback landed on seq=%d steps=%d, want 1/1", seq, ck.Steps)
	}
	if len(quarantined) != 2 {
		t.Fatalf("quarantined %v, want the two corrupt generations", quarantined)
	}
	f2, err := Resume(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Steps() != 1 {
		t.Fatalf("resumed from survivor at step %d, want 1", f2.Steps())
	}
	// The corrupt files fail with the typed sentinel error.
	for _, p := range quarantined {
		if _, err := LoadCheckpoint(p + ".corrupt"); !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("corrupt checkpoint %s: err = %v, want guard.ErrCorrupt", p, err)
		}
	}

	// Legacy single-file checkpoints still resolve (sequence 0).
	legacy := filepath.Join(dir, "legacy.ckpt")
	if err := f.WriteCheckpoint(legacy); err != nil {
		t.Fatal(err)
	}
	lck, lseq, _, err := LoadNewestCheckpoint(legacy, 3)
	if err != nil || lseq != 0 || lck.Steps != 3 {
		t.Fatalf("legacy fallback: seq=%d steps=%v err=%v", lseq, lck, err)
	}
}

// With the sentinel on but no ring configured, a divergence degrades the
// fleet of one and records the failed rollback instead of crashing the
// conductor.
func TestFleetOfOneGuardDivergenceWithoutRingDegrades(t *testing.T) {
	ds, f := newTestFleet(t, 1, Config{
		BatchSize: 2, MinFrames: 2, Seed: 6,
		Guard: guard.SentinelConfig{Enabled: true, SampleStride: 1},
		Chaos: guard.ChaosConfig{PoisonStep: 2, PoisonInf: true},
		Gate:  stream.GateConfig{Enabled: false},
	})
	for i := 0; i < 4; i++ {
		f.admit(f.reps[0], ds.Snapshots[i])
	}
	f.step()
	f.step() // poisoned; no ring → rollback must fail loudly but safely
	st := f.Stats()
	if st.Guard == nil || st.Guard.Divergences != 1 || st.Guard.Rollbacks != 0 {
		t.Fatalf("guard status: %+v", st.Guard)
	}
	if !st.Guard.Degraded {
		t.Fatal("unrecovered divergence must leave the fleet degraded")
	}
	if !strings.Contains(st.LastError, "rollback") {
		t.Fatalf("last error %q does not mention the failed rollback", st.LastError)
	}
}

// bitsDigest is the SHA-256 of the little-endian IEEE-754 bits of xs.
func bitsDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// testdata/legacy_trainer.ckpt was written by the single trainer, before it
// became a fleet of one, after admitting six frames and before its first
// step (batch 2, seed 9, default gate).  The expected bits are that
// trainer's weights, λ and P diagonal after three more of its own steps.
// Resumed as a one-replica fleet, three steps must reproduce them exactly.
func TestLegacyTrainerCheckpointResumesBitwise(t *testing.T) {
	const path = "testdata/legacy_trainer.ckpt"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	if err := guard.EncodeFrame(&framed, 1, raw); err != nil {
		t.Fatal(err)
	}
	framedCk, err := DecodeCheckpoint(framed.Bytes())
	if err != nil {
		t.Fatalf("framed legacy payload: %v", err)
	}
	ck, seq, _, err := LoadNewestCheckpoint(path, 3)
	if err != nil || seq != 0 {
		t.Fatalf("legacy fallback: seq=%d err=%v", seq, err)
	}
	if len(ck.Replicas) != 1 || len(framedCk.Replicas) != 1 {
		t.Fatalf("legacy checkpoint converted to %d replicas, want 1", len(ck.Replicas))
	}
	rck := ck.Replicas[0]
	if !rck.Alive || rck.ID != 0 || rck.FramesAccepted != 6 || rck.Replay == nil || rck.Replay.Seen != 6 || rck.Gate == nil {
		t.Fatalf("converted replica: %+v", rck)
	}
	if ck.Steps != 0 || ck.Opt == nil || ck.Opt.Kalman != nil {
		t.Fatalf("legacy checkpoint at step %d, Kalman %v: want 0 and none", ck.Steps, ck.Opt)
	}

	f, err := Resume(ck, Config{BatchSize: 2, MinFrames: 2, Gate: stream.DefaultGateConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.step()
	}
	r := f.reps[0]
	if st := f.Stats(); st.Steps != 3 || st.LastError != "" {
		t.Fatalf("resumed fleet at step %d (last error %q), want 3", st.Steps, st.LastError)
	}
	if got := math.Float64bits(r.opt.Lambda()); got != 0x3fef5f5372c0a87f {
		t.Fatalf("λ bits %#x, want %#x", got, uint64(0x3fef5f5372c0a87f))
	}
	if got := r.opt.Updates(); got != 15 {
		t.Fatalf("%d Kalman updates, want 15", got)
	}
	if got := bitsDigest(r.model.Params.FlattenValues()); got != "e50b04f7b20b87242147ac849eb2e79ad387f51267045be38a09d83935618970" {
		t.Fatalf("weight bits digest %s differs from the single trainer's", got)
	}
	if got := bitsDigest(r.opt.PDiagonal()); got != "30b0cd57b46d42fc5472246c60f52c9e2a430b3726df793994c24311df74215f" {
		t.Fatalf("P diagonal bits digest %s differs from the single trainer's", got)
	}
}

// The replicas' filters keep the prototype's Pipeline choice — at New and
// through the catch-up restore Revive runs — rather than the environment
// default a checkpoint restore falls back to.
func TestReplicaPipelineFollowsPrototype(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		ds, m, opt := fleetSetup(t)
		opt.Pipeline = pipeline
		f, err := New(m, opt, ds, Config{Replicas: 2, BatchSize: 2, MinFrames: 2, Seed: 3,
			Gate: stream.GateConfig{Enabled: false}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range f.reps {
			if r.opt.Pipeline != pipeline {
				t.Fatalf("Pipeline=%v prototype: replica %d built with %v", pipeline, r.id, r.opt.Pipeline)
			}
		}
		for i := 0; i < 4; i++ {
			f.admit(f.reps[i%2], ds.Snapshots[i])
		}
		f.step()
		ctx := context.Background()
		if err := f.Kill(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.Revive(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if got := f.reps[1].opt.Pipeline; got != pipeline {
			t.Fatalf("Pipeline=%v prototype: revived replica has %v", pipeline, got)
		}
	}
}

// After Resume, the replay capacity in Stats is the restored buffers'
// (the checkpoint's sizes), not the resuming config's.
func TestResumeReportsRestoredReplayCapacity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	ds, f := newTestFleet(t, 1, Config{WindowSize: 8, ReservoirSize: 8, Seed: 2,
		Gate: stream.GateConfig{Enabled: false}})
	for i := 0; i < 5; i++ {
		f.admit(f.reps[0], ds.Snapshots[i])
	}
	if err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Resume(ck, Config{BatchSize: 2, WindowSize: 32, ReservoirSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := f2.Stats()
	if st.ReplayCapacity != 16 {
		t.Fatalf("resumed replay capacity %d, want the checkpoint's 16", st.ReplayCapacity)
	}
	if want := float64(st.ReplaySize) / 16; st.ReplaySize == 0 || st.ReplayOccupancy != want {
		t.Fatalf("resumed replay occupancy %v (size %d), want %v", st.ReplayOccupancy, st.ReplaySize, want)
	}
}

// An ingested frame reaches a step without the conductor's clock ever
// moving: Ingest wakes the idle conductor instead of leaving the frame for
// the next PollInterval.
func TestIngestWakesIdleConductor(t *testing.T) {
	stepped := make(chan int64, 1)
	clk := clocktest.New(time.Unix(0, 0))
	ds, f := newTestFleet(t, 1, Config{
		BatchSize: 1, MinFrames: 1, Seed: 4, Clock: clk,
		Gate: stream.GateConfig{Enabled: false},
		OnStep: func(step int64, _ optimize.StepInfo) {
			select {
			case stepped <- step:
			default:
			}
		},
	})
	f.Start()
	defer f.Stop(context.Background())
	// Let the conductor find the queue empty and park on its idle wait.
	for clk.Waiters() == 0 {
		runtime.Gosched()
	}
	if ok, err := f.Ingest(ds.Snapshots[0]); !ok || err != nil {
		t.Fatalf("ingest: %v %v", ok, err)
	}
	select {
	case n := <-stepped:
		if n != 1 {
			t.Fatalf("first observed step %d, want 1", n)
		}
	case <-time.After(time.Minute):
		t.Fatal("the ingested frame never reached a step with the clock stopped")
	}
}
