package online

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/fleet"
	"fekf/internal/fleet/clocktest"
	"fekf/internal/obs"
	"fekf/internal/optimize"
	"fekf/internal/stream"
)

// onlineSetup builds a small labelled stream, an initialized tiny model and
// a paper-default FEKF for trainer tests.
func onlineSetup(t testing.TB) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 16, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("online-test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	return ds, m, opt
}

func TestValidateFrame(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	good := ds.Snapshots[0]
	if err := tr.ValidateFrame(&good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Pos = bad.Pos[:len(bad.Pos)-3]
	bad.Types = bad.Types[:len(bad.Types)-1]
	bad.Forces = bad.Forces[:len(bad.Forces)-3]
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with a different atom count passed validation")
	}
	bad = good
	bad.Types = append([]int(nil), good.Types...)
	bad.Types[0] = 7
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with an out-of-range species passed validation")
	}
	bad = good
	bad.Box = [3]float64{10, -1, 10}
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("frame with a non-positive box passed validation")
	}
	bad = good
	bad.Forces = good.Forces[:0]
	if err := tr.ValidateFrame(&bad); err == nil {
		t.Fatal("unlabelled frame passed validation")
	}
}

// A single trainer is one replica and never resizes: fleet-only
// configurations and multi-replica checkpoints are refused.
func TestNewTrainerRejectsFleetConfigs(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	if _, err := NewTrainer(m, opt, ds, TrainerConfig{Replicas: 2}); err == nil {
		t.Fatal("NewTrainer accepted two replicas")
	}
	if _, err := NewTrainer(m, opt, ds, TrainerConfig{Autoscale: fleet.AutoscaleConfig{Enabled: true}}); err == nil {
		t.Fatal("NewTrainer accepted autoscaling")
	}
	ck := &fleet.Checkpoint{Replicas: make([]*fleet.ReplicaCheckpoint, 2)}
	if _, err := ResumeTrainer(ck, TrainerConfig{}); err == nil {
		t.Fatal("ResumeTrainer accepted a two-replica checkpoint")
	}
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No FleetStats: the serving layer must not add a per-replica row.
	if _, ok := any(tr).(interface{ FleetStats() fleet.Stats }); ok {
		t.Fatal("Trainer exposes FleetStats")
	}
}

// NewMetrics registers exactly the two trainer families.
func TestNewMetricsRegistersTrainFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	NewMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	want := []string{"fekf_train_checkpoint_seconds histogram", "fekf_train_step_seconds histogram"}
	if strings.Join(types, ";") != strings.Join(want, ";") {
		t.Fatalf("registered families %q, want %q", types, want)
	}
}

// An idle trainer holds no covariance: the p_resident_bytes it reports on
// /v1/stats is 0 until the first step builds P, and one full P after it.
// The conductor's clock never advances, so it steps only when a frame
// wakes it.
func TestIdleTrainerHoldsNoCovariance(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	stepped := make(chan struct{}, 1)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, MinFrames: 2, Seed: 5, Clock: clocktest.New(time.Unix(0, 0)),
		Gate: GateConfig{Enabled: false},
		OnStep: func(int64, optimize.StepInfo) {
			select {
			case stepped <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop(context.Background())
	if got := tr.Stats().PResidentBytes; got != 0 {
		t.Fatalf("idle trainer holds %d covariance bytes, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if ok, err := tr.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	select {
	case <-stepped:
	case <-time.After(time.Minute):
		t.Fatal("two frames never produced a step")
	}
	ref := optimize.NewFEKF()
	ref.KCfg = opt.KCfg
	if got, want := tr.Stats().PResidentBytes, ref.InitState(m).PBytes(); got != want || want == 0 {
		t.Fatalf("after the first step the trainer holds %d covariance bytes, want one full P (%d)", got, want)
	}
}

// Race soak: concurrent ingest, prediction on published snapshots, and
// stats polling while the trainer loop steps.  Run under -race (make
// race-online / make ci).  Producers send a fixed stream; readers and the
// poller run until it is sent and the trainer has stepped a few times.
func TestConcurrentIngestPredictSoak(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	var steps atomic.Int64
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, MinFrames: 2, SnapshotEvery: 1, TrainIdle: true,
		QueueSize: 8, QueuePolicy: stream.DropNewest, Seed: 5,
		Gate:   GateConfig{Enabled: true, Threshold: 0.5, Decay: 0.9, Warmup: 4},
		OnStep: func(n int64, _ optimize.StepInfo) { steps.Store(n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()

	var producers, others sync.WaitGroup
	sent := make(chan struct{})
	busy := func() bool {
		select {
		case <-sent:
			return steps.Load() < 3
		default:
			return true
		}
	}
	// two producers streaming labelled frames
	for p := 0; p < 2; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for i := 0; i < 200; i++ {
				if _, err := tr.Ingest(ds.Snapshots[(p+i)%ds.Len()]); err != nil {
					return
				}
				runtime.Gosched()
			}
		}(p)
	}
	// two readers running forwards on whatever snapshot is current
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for busy() {
				snap := tr.Snapshot()
				env, err := deepmd.BuildBatchEnv(snap.Model.Cfg, ds, []int{0})
				if err != nil {
					t.Error(err)
					return
				}
				out := snap.Model.Forward(env, true)
				if out.Energies.Value.Data[0] != out.Energies.Value.Data[0] {
					t.Error("snapshot forward produced NaN")
				}
				out.Graph.Release()
			}
		}()
	}
	// one stats poller
	others.Add(1)
	go func() {
		defer others.Done()
		for busy() {
			_ = tr.Stats()
			runtime.Gosched()
		}
	}()
	producers.Wait()
	close(sent)
	others.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Steps == 0 {
		t.Fatal("soak finished without a single optimizer step")
	}
	if st.LastError != "" {
		t.Fatalf("trainer recorded error: %s", st.LastError)
	}
	if tr.Snapshot().Step != st.Steps {
		t.Fatalf("final snapshot at step %d, trainer at %d", tr.Snapshot().Step, st.Steps)
	}
}

// Stop must drain queued frames into the replay buffer and write the final
// checkpoint.
func TestGracefulStopDrainsAndCheckpoints(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	path := filepath.Join(t.TempDir(), "final.ckpt")
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{
		BatchSize: 2, MinFrames: 2, CheckpointPath: path, Seed: 3,
		Gate: GateConfig{Enabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	for i := 0; i < 8; i++ {
		if ok, err := tr.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().FramesSeen; got != 8 {
		t.Fatalf("replay saw %d frames after drain, want 8", got)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	if ck.Replicas[0].Replay.Seen != 8 {
		t.Fatalf("final checkpoint recorded %d frames, want 8", ck.Replicas[0].Replay.Seen)
	}
	// Stop is idempotent
	if err := tr.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}
