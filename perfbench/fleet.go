package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fekf/internal/fleet"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/serve"
)

// stream-fleet: a 2-replica fleet with sharded covariance behind
// serve.Server, fed labelled frames by one open-loop producer at a fixed
// rate while one closed-loop client predicts on 32-atom cells.
const (
	fleetReplicas  = 2
	frameRateHz    = 4.0 // fixed producer rate; the fleet is busy about half the time
	frameMDSteps   = 5   // Langevin steps between produced frames
	freshnessGrace = 20 * time.Second
)

// setupFleetService boots the fleet as cmd/serve -replicas 2 -pshard does,
// with a checkpoint ring under dir, and waits until it has trained on the
// bootstrap frames.
func setupFleetService(seed int64, dir string, traced bool) (*service, error) {
	ds, m, opt, err := bootstrapModel(seed)
	if err != nil {
		return nil, err
	}
	reg, tracer := instruments(traced)
	fcfg := fleet.Config{
		Replicas: fleetReplicas, PShard: true, ShardPolicy: fleet.RoundRobin,
		BatchSize: 8, QueueSize: 256, QueuePolicy: online.Block,
		WindowSize: 256, ReservoirSize: 256, SnapshotEvery: 4,
		CheckpointPath: filepath.Join(dir, "fleet.ckpt"), CheckpointEvery: 16, CheckpointKeep: 3,
		Guard: guard.SentinelConfig{Enabled: true}, Gate: gateConfig(), Seed: seed,
		Transport: "chan", Trace: tracer,
	}
	if reg != nil {
		fcfg.Metrics = fleet.NewMetrics(reg)
	}
	fl, err := fleet.New(m, opt, ds, fcfg)
	if err != nil {
		return nil, err
	}
	for _, s := range ds.Snapshots {
		if _, err := fl.Ingest(s); err != nil {
			return nil, err
		}
	}
	fl.Start()
	svc, err := startService(fl, reg, tracer)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := fl.Stats(); st.Steps >= 1 && st.QueueDepth == 0 && st.FramesSeen+st.FramesGatedOut >= int64(len(ds.Snapshots)) {
			return svc, nil
		}
		if time.Now().After(deadline) {
			svc.stop()
			return nil, fmt.Errorf("fleet did not train on its bootstrap frames within 60s")
		}
	}
}

// framePlan is the pre-generated producer input: labelled frames of one
// seeded Langevin trajectory, already encoded.
func framePlan(seed int64, n int) ([][]byte, error) {
	spec, err := md.GetSystem("Cu")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sys, pot := spec.TinyBuild()
	T := spec.Temperatures[rng.Intn(len(spec.Temperatures))]
	sys.InitVelocities(T, rng)
	lg := md.NewLangevin(pot, spec.TimeStep, T, rng)
	lg.Run(sys, 40, 0, nil)
	bodies := make([][]byte, n)
	for i := range bodies {
		lg.Run(sys, frameMDSteps, 0, nil)
		e, f := md.ComputeAll(pot, sys)
		body, err := json.Marshal(serve.FramesRequest{Frames: []serve.FramePayload{{
			Pos: append([]float64(nil), sys.Pos...), Box: sys.Box, Types: append([]int(nil), sys.Types...),
			Energy: e, Forces: f, Temperature: T,
		}}})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// snapshotLog records when each published snapshot step first became
// visible through the backend's public Snapshot(), using the snapshot's
// own Published stamp.
type snapshotLog struct {
	mu    sync.Mutex
	steps []int64
	at    []time.Time
}

func (l *snapshotLog) watch(be serve.Backend, stop <-chan struct{}) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		if s := be.Snapshot(); s != nil {
			l.mu.Lock()
			if n := len(l.steps); n == 0 || s.Step > l.steps[n-1] {
				l.steps = append(l.steps, s.Step)
				l.at = append(l.at, s.Published)
			}
			l.mu.Unlock()
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// fresh returns the publication time of the first snapshot whose step
// exceeds step.
func (l *snapshotLog) fresh(step int64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.steps), func(i int) bool { return l.steps[i] > step })
	if i == len(l.steps) {
		return time.Time{}, false
	}
	return l.at[i], true
}

// producer is the open-loop frame generator: frame i is due at
// start + i/frameRateHz whether or not earlier posts have returned.
type producer struct {
	post, late, fresh latencies
	ops               opCount
	// firstAccepted and lastFresh bound the time over which the measured
	// frames were absorbed into published snapshots.
	firstAccepted, lastFresh time.Time
	freshFailed              int
	problems                 []string
}

// run posts frames on schedule from start.  Frames due before until are
// measured; afterwards it keeps the schedule going, unmeasured, until
// every measured frame has reached a published snapshot or the grace
// period ends.
func (p *producer) run(svc *service, fl *fleet.Fleet, bodies [][]byte, start, until time.Time, snaps *snapshotLog) {
	client := newClient(2)
	defer client.CloseIdleConnections()
	type pending struct {
		accepted time.Time
		step     int64
	}
	var waiting []pending
	resolve := func() {
		kept := waiting[:0]
		for _, w := range waiting {
			if at, ok := snaps.fresh(w.step); ok {
				p.fresh.add(at.Sub(w.accepted))
				if at.After(p.lastFresh) {
					p.lastFresh = at
				}
			} else {
				kept = append(kept, w)
			}
		}
		waiting = kept
	}
	graceEnd := until.Add(freshnessGrace)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / frameRateHz * float64(time.Second)))
		measured := due.Before(until)
		resolve()
		if !measured && (len(waiting) == 0 || due.After(graceEnd)) {
			break
		}
		if i == len(bodies) {
			p.problems = append(p.problems, fmt.Sprintf("frame plan exhausted after %d frames", i))
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		status, payload, err := post(client, svc.base+"/v1/frames", bodies[i])
		done := time.Now()
		if !measured {
			continue
		}
		p.ops.attempted++
		p.late.add(sent.Sub(due))
		var resp serve.FramesResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(payload, &resp)
		}
		if err != nil || status != http.StatusOK || resp.Accepted != 1 {
			p.ops.failed++ // refused, timed out or dropped by queue policy
			continue
		}
		p.post.add(done.Sub(due))
		if p.firstAccepted.IsZero() {
			p.firstAccepted = done
		}
		waiting = append(waiting, pending{accepted: done, step: fl.Steps()})
	}
	p.freshFailed = len(waiting)
}

func runStreamFleet(o options) (*result, error) {
	res := newResult()
	n := int(frameRateHz*(o.seconds+freshnessGrace.Seconds())) + 16
	bodies, err := framePlan(o.seed, n)
	if err != nil {
		return nil, err
	}

	type phaseOut struct {
		ph     *predictPhase
		prod   *producer
		svc    *service
		setupS float64
		depth  []float64
	}
	phase := func(traced bool, seconds float64) (*phaseOut, error) {
		k := 0
		svc, setupS, err := setupRepeated(func() (*service, error) {
			dir := filepath.Join(o.scratch, fmt.Sprintf("fleet-%t-%d", traced, k))
			k++
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			return setupFleetService(o.seed, dir, traced)
		})
		if err != nil {
			return nil, err
		}
		fl := svc.be.(*fleet.Fleet)
		out := &phaseOut{prod: &producer{}, svc: svc, setupS: setupS}
		snaps := &snapshotLog{}
		stopWatch := make(chan struct{})
		var watchWG sync.WaitGroup
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			snaps.watch(fl, stopWatch)
		}()
		out.ph, err = runPredictPhase(svc, o.seed, 1, 0, seconds, func(until time.Time) {
			start := time.Now()
			stopDepth := make(chan struct{})
			depthDone := make(chan struct{})
			go func() {
				defer close(depthDone)
				t := time.NewTicker(10 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-stopDepth:
						return
					case <-t.C:
						out.depth = append(out.depth, float64(fl.Stats().QueueDepth))
					}
				}
			}()
			out.prod.run(svc, fl, bodies, start, until, snaps)
			close(stopDepth)
			<-depthDone
		})
		close(stopWatch)
		watchWG.Wait()
		if serr := svc.stop(); err == nil && serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
		return out, err
	}
	checkFleet := func(po *phaseOut) {
		st := po.ph.statsEnd
		res.check(st.Fleet != nil, "/v1/stats has no fleet row")
		if st.Fleet != nil {
			res.check(st.Fleet.WeightDrift == 0, "fleet weight drift %g", st.Fleet.WeightDrift)
			res.check(st.Fleet.PDrift == 0, "fleet P drift %g", st.Fleet.PDrift)
		}
		res.check(st.Steps > po.ph.statsBeg.Steps, "fleet took no steps in the measured window")
		res.check(st.LastError == "", "fleet last_error: %s", st.LastError)
		res.problems = append(res.problems, po.prod.problems...)
		po.ph.merge(res, "predicts")
		frames := res.op("frame_posts")
		frames.attempted += po.prod.ops.attempted
		frames.failed += po.prod.ops.failed
		fresh := res.op("freshness")
		fresh.attempted += po.prod.ops.attempted - po.prod.ops.failed
		fresh.failed += po.prod.freshFailed
		steps := res.op("train_steps")
		steps.attempted += int(st.Steps - po.ph.statsBeg.Steps)
	}

	if !o.trace {
		po, err := phase(false, o.seconds)
		if err != nil {
			return nil, err
		}
		checkFleet(po)
		lat := po.ph.latencies()
		perS := float64(len(lat)) / po.ph.elapsed
		samples := float64(po.ph.statsEnd.Steps-po.ph.statsBeg.Steps) * fleetReplicas * 8
		post, late, fresh := po.prod.post.values(), po.prod.late.values(), po.prod.fresh.values()
		// The op is a frame's trip into a published snapshot: closed-loop
		// predicts beside training swing with the host's load by more
		// than any useful bound, while freshness is set by the step
		// schedule and the step time.
		res.e2e["setup_s"] = po.setupS
		res.e2e["heap_peak_mb"] = po.ph.heapMB
		res.e2e["op_p50_ms"] = median(fresh)
		res.e2e["op_tail_ms"] = quantile(fresh, tailQuantile(len(fresh)))
		res.e2e["ops_per_s"] = float64(len(fresh)) / po.prod.lastFresh.Sub(po.prod.firstAccepted).Seconds()
		res.row("setup_s", po.setupS, "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
		res.row("train_samples_per_s", samples/po.ph.end.Sub(po.ph.start).Seconds(), "frames/s", fmt.Sprintf("%d steps x global batch %d", po.ph.statsEnd.Steps-po.ph.statsBeg.Steps, fleetReplicas*8))
		res.row("predict_p50_ms", median(lat), "ms", fmt.Sprintf("%d predicts of 32 atoms", len(lat)))
		res.row("predict_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("%d predicts", len(lat)))
		res.row("predict_per_s", perS, "req/s", "1 closed-loop client")
		res.row("frame_post_p99_ms", quantile(post, 0.99), "ms", fmt.Sprintf("%d frames at %g/s, from scheduled send", len(post), frameRateHz))
		res.row("gen_late_p99_ms", quantile(late, 0.99), "ms", fmt.Sprintf("%d frames", len(late)))
		res.row("freshness_p50_ms", median(fresh), "ms", fmt.Sprintf("%d frames", len(fresh)))
		res.row("freshness_p99_ms", quantile(fresh, 0.99), "ms", fmt.Sprintf("%d frames", len(fresh)))
		res.row("freshness_tail_ms", res.e2e["op_tail_ms"], "ms", fmt.Sprintf("p%.0f of %d frames", 100*tailQuantile(len(fresh)), len(fresh)))
		res.row("fresh_frames_per_s", res.e2e["ops_per_s"], "frames/s", "first accepted frame to last fresh snapshot")
		res.row("heap_peak_mb", po.ph.heapMB, "MB", "")
		return res, nil
	}

	plain, err := phase(false, o.seconds/2)
	if err != nil {
		return nil, err
	}
	po, err := phase(true, o.seconds/2)
	if err != nil {
		return nil, err
	}
	checkFleet(plain)
	checkFleet(po)
	L := zeroLayers()
	predictLayers(L, po.ph)
	fleetLayers(L, po.ph, po.svc.tracer)
	L["serve.handler_frames_mean_ms"] = routeMeanMs(po.ph.promBeg, po.ph.promEnd, "/v1/frames")
	L["online.queue_depth_mean"] = mean(po.depth)
	L["trace.overhead_pct"] = 100 * (median(po.prod.fresh.values())/median(plain.prod.fresh.values()) - 1)
	traces := po.svc.tracer.Last(0)
	L["trace.spans"] = float64(countSpans(traces))
	res.check(po.svc.tracer.Dropped() == 0 && lostSpans(traces) == 0, "tracer dropped %d step traces and %d spans", po.svc.tracer.Dropped(), lostSpans(traces))
	res.layers = L
	steps := po.ph.statsEnd.Steps - po.ph.statsBeg.Steps
	res.row("fleet_busy_frac", L["fleet.step_ms"]*float64(steps)/1000/po.ph.end.Sub(po.ph.start).Seconds(), "ratio", fmt.Sprintf("%d steps at %g frames/s", steps, frameRateHz))
	res.row("untraced_freshness_p50_ms", median(plain.prod.fresh.values()), "ms", fmt.Sprintf("%d frames", len(plain.prod.fresh.values())))
	res.row("traced_freshness_p50_ms", median(po.prod.fresh.values()), "ms", fmt.Sprintf("%d frames", len(po.prod.fresh.values())))
	return res, nil
}

// fleetLayers fills the online, fleet, cluster, pshard and guard layer
// metrics of a traced stream phase from the fleet's step traces and
// /v1/stats deltas.
func fleetLayers(L map[string]float64, ph *predictPhase, tracer *obs.Tracer) {
	beg, end := ph.statsBeg, ph.statsEnd
	steps := float64(end.Steps - beg.Steps)
	if acc, gated := end.FramesAccepted-beg.FramesAccepted, end.FramesGatedOut-beg.FramesGatedOut; acc+gated > 0 {
		L["online.gate_accept_frac"] = float64(acc) / float64(acc+gated)
	}
	L["online.frames_dropped"] = float64(end.FramesDropped - beg.FramesDropped)
	L["guard.checkpoints"] = float64(end.Checkpoints - beg.Checkpoints)
	if end.Fleet != nil && beg.Fleet != nil && steps > 0 {
		L["cluster.wire_bytes_per_step"] = float64(end.Fleet.RingWireBytes-beg.Fleet.RingWireBytes) / steps
		L["cluster.ops_per_step"] = float64(end.Fleet.RingOps-beg.Fleet.RingOps) / steps
	}
	if end.Fleet != nil && end.Fleet.PShard != nil {
		for _, b := range end.Fleet.PShard.ResidentBytesPerRank {
			if float64(b) > L["pshard.resident_p_bytes_max"] {
				L["pshard.resident_p_bytes_max"] = float64(b)
			}
		}
		L["pshard.exchange_bytes_per_step"] = float64(end.Fleet.PShard.ExchangeBytesPerStep)
	}

	// Steps are the traces with rank work; per-rank phases are averaged
	// over the ranks, conductor phases over their occurrences.
	var stepTraces []obs.StepTrace
	for _, tr := range tracer.Last(0) {
		if tr.Start.Before(ph.start) {
			continue
		}
		for _, s := range tr.Spans {
			if s.Rank >= 0 && s.Name == "backward" {
				stepTraces = append(stepTraces, tr)
				break
			}
		}
	}
	if len(stepTraces) == 0 {
		return
	}
	n := float64(len(stepTraces))
	durMs := 0.0
	for _, tr := range stepTraces {
		durMs += float64(tr.DurNs) / 1e6
	}
	tot, cnt := spanTotals(stepTraces), spanCounts(stepTraces)
	perRankStep := func(name string) float64 { return tot[name] / n / fleetReplicas }
	perCall := func(name string) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return tot[name] / float64(cnt[name])
	}
	L["fleet.step_ms"] = durMs / n
	L["fleet.backward_ms"] = perRankStep("backward")
	L["fleet.gain_ms"] = perRankStep("gain")
	L["fleet.drain_ms"] = perRankStep("drain")
	L["fleet.snapshot_publish_ms"] = perCall("snapshot_publish")
	L["cluster.allreduce_ms"] = perRankStep("allreduce")
	L["cluster.exchange_ms"] = perRankStep("exchange")
	L["guard.checkpoint_ms"] = perCall("checkpoint")
}
