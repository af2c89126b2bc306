package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/deepmd"
	"fekf/internal/md"
	"fekf/internal/stream"
)

// ErrStopped is returned for predictions submitted after Batcher.Stop.
var ErrStopped = errors.New("serve: batcher stopped")

// Result is one prediction produced by the batcher.
type Result struct {
	Energy float64
	Forces []float64
	Step   int64 // training step of the answering snapshot
	Batch  int   // micro-batch size this request was served in
}

type predictJob struct {
	sys  *md.System
	done chan jobResult
}

type jobResult struct {
	res Result
	err error
}

// Batcher merges concurrent prediction requests into shared forward
// passes: the first request opens a collection window (BatchWindow) and up
// to MaxBatch-1 more join it; jobs are grouped by atom count and each
// group runs as ONE batched forward on the latest published model
// snapshot.  Under concurrent load this amortizes graph construction and
// kernel dispatch across requests — the serving-side analogue of the
// paper's aggregation-before-computing — while a lone request pays only
// the window latency.
type Batcher struct {
	snap     func() *stream.ModelSnapshot
	maxBatch int
	window   time.Duration

	jobs     chan *predictJob
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	served  atomic.Int64
	batches atomic.Int64
}

// NewBatcher builds a batcher reading snapshots from snap, with workers
// parallel batch executors (default 1).
func NewBatcher(snap func() *stream.ModelSnapshot, maxBatch int, window time.Duration, workers int) *Batcher {
	if maxBatch < 1 {
		maxBatch = 16
	}
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	if workers < 1 {
		workers = 1
	}
	b := &Batcher{
		snap:     snap,
		maxBatch: maxBatch,
		window:   window,
		jobs:     make(chan *predictJob),
		stop:     make(chan struct{}),
	}
	b.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go b.worker()
	}
	return b
}

// Predict submits one system and waits for its result (or ctx expiry).
func (b *Batcher) Predict(ctx context.Context, sys *md.System) (Result, error) {
	j := &predictJob{sys: sys, done: make(chan jobResult, 1)}
	select {
	case b.jobs <- j:
	case <-b.stop:
		return Result{}, ErrStopped
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Stop shuts the workers down after their in-flight batches finish;
// queued-but-unclaimed jobs receive ErrStopped via Predict's stop case.
// Stop is idempotent.
func (b *Batcher) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// Served returns the number of predictions answered.
func (b *Batcher) Served() int64 { return b.served.Load() }

// Batches returns the number of forward passes executed.
func (b *Batcher) Batches() int64 { return b.batches.Load() }

// worker collects micro-batches and executes them.
func (b *Batcher) worker() {
	defer b.wg.Done()
	for {
		var first *predictJob
		select {
		case first = <-b.jobs:
		case <-b.stop:
			return
		}
		batch := []*predictJob{first}
		timer := time.NewTimer(b.window)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case j := <-b.jobs:
				batch = append(batch, j)
			case <-timer.C:
				break collect
			case <-b.stop:
				break collect
			}
		}
		timer.Stop()
		b.run(batch)
	}
}

// run groups the batch by atom count and answers every job.  Snapshots are
// immutable clones, so concurrent forwards are read-only on the weights.
func (b *Batcher) run(batch []*predictJob) {
	groups := make(map[int][]*predictJob)
	for _, j := range batch {
		groups[j.sys.NumAtoms()] = append(groups[j.sys.NumAtoms()], j)
	}
	for _, group := range groups {
		b.runGroup(group)
	}
}

func (b *Batcher) runGroup(group []*predictJob) {
	snap := b.snap()
	if snap == nil {
		for _, j := range group {
			j.done <- jobResult{err: errors.New("serve: no model snapshot published yet")}
		}
		return
	}
	// A frame BuildEnv would refuse is answered on its own, so it cannot
	// fail the rest of its group.
	ok := group[:0]
	for _, j := range group {
		if err := deepmd.CheckGeometry(snap.Model.Cfg, j.sys.Box, j.sys.Pos); err != nil {
			j.done <- jobResult{err: err}
			continue
		}
		ok = append(ok, j)
	}
	group = ok
	if len(group) == 0 {
		return
	}
	systems := make([]*md.System, len(group))
	for i, j := range group {
		systems[i] = j.sys
	}
	env, err := deepmd.BuildEnv(snap.Model.Cfg, systems)
	if err != nil {
		for _, j := range group {
			j.done <- jobResult{err: err}
		}
		return
	}
	out := snap.Model.Forward(env, true)
	na := env.NaPer
	for i, j := range group {
		forces := make([]float64, 3*na)
		copy(forces, out.Forces.Value.Data[3*na*i:3*na*(i+1)])
		j.done <- jobResult{res: Result{
			Energy: out.Energies.Value.Data[i],
			Forces: forces,
			Step:   snap.Step,
			Batch:  len(group),
		}}
	}
	out.Graph.Release()
	b.served.Add(int64(len(group)))
	b.batches.Add(1)
}
