package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/guard"
	"fekf/internal/md"
	"fekf/internal/obs"
	"fekf/internal/online"
	"fekf/internal/optimize"
	"fekf/internal/serve"
)

// serve-predict: an idle online.Trainer behind serve.Server on loopback,
// read by predictClients closed-loop clients.  MD integrators wait for
// forces before their next step, so a closed loop models them.
//
// The workload runs on predictProcs Ps with one client, so it never needs
// both of a 2-vCPU host's cores at once.  With two clients on two Ps every
// request, batch worker and tensor worker competed for them, and the p95
// moved by a quarter of its median between runs with the host's load from
// elsewhere; with one client on two Ps a busy loop beside the benchmark
// still raised the p50 by a fifth, and on one P it moved neither.
const (
	bootstrapFrames = 16   // cmd/serve -bootstrap default
	setupRepeats    = 9    // set-ups per run; setup_s is their median
	predictClients  = 1    // closed-loop clients in serve-predict
	predictProcs    = 1    // GOMAXPROCS during serve-predict
	largeCellShare  = 0.25 // share of predicts on 108-atom cells
	jitterAngstrom  = 0.05 // uniform position jitter per request
	warmup          = 500 * time.Millisecond
	// The gated serve-predict figures are read from the quieter quarter of
	// subWindows equal slices of the measured window.  Load from elsewhere
	// on the host comes in bursts of several seconds and only ever slows a
	// slice, while a change to the program moves every slice alike.
	subWindows = 10
)

// bootstrapModel mirrors cmd/serve's boot path: a small generated Cu
// dataset and a tiny model plus paper-default FEKF initialised on it.
func bootstrapModel(seed int64) (*dataset.Dataset, *deepmd.Model, *optimize.FEKF, error) {
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: bootstrapFrames, SampleEvery: 5, EquilSteps: 40, Tiny: true, Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	cfg := deepmd.TinyConfig(sys)
	cfg.Seed = seed
	m, err := deepmd.NewModel(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.InitFromDataset(ds); err != nil {
		return nil, nil, nil, err
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("gpu0", device.A100())
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	opt.ForceGroups = forceGroups
	opt.Pipeline = true
	return ds, m, opt, nil
}

// gateConfig is cmd/serve's default gate: on, threshold 0.5.
func gateConfig() online.GateConfig {
	g := online.DefaultGateConfig()
	g.Enabled = true
	g.Threshold = 0.5
	return g
}

// service is a backend behind a started server.
type service struct {
	be     serve.Backend
	srv    *serve.Server
	base   string
	reg    *obs.Registry // nil untraced
	tracer *obs.Tracer   // nil untraced
}

// instruments returns the registry and tracer of a traced run (nil, nil
// untraced).  The tracer ring holds every step a run can take.
func instruments(traced bool) (*obs.Registry, *obs.Tracer) {
	if !traced {
		return nil, nil
	}
	return obs.NewRegistry(), obs.NewTracer(1 << 14)
}

// startService serves be on a random loopback port and waits until it
// answers /healthz with a published snapshot.
func startService(be serve.Backend, reg *obs.Registry, tracer *obs.Tracer) (*service, error) {
	srv := serve.New(be, serve.Config{Addr: "127.0.0.1:0", Metrics: reg, Trace: tracer})
	if err := srv.Start(); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		be.Stop(ctx)
		return nil, err
	}
	s := &service{be: be, srv: srv, base: "http://" + srv.Addr(), reg: reg, tracer: tracer}
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		var h serve.HealthResponse
		if err := getJSON(client, s.base+"/healthz", &h); err == nil && h.Status == "ok" && be.Snapshot() != nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server and its backend down and waits for them.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *service) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	err := getJSON(client, s.base+"/v1/stats", &st)
	return st, err
}

// setupTrainerService boots an idle single-trainer service as cmd/serve
// does, with no frames ingested.
func setupTrainerService(seed int64, traced bool) (*service, error) {
	ds, m, opt, err := bootstrapModel(seed)
	if err != nil {
		return nil, err
	}
	reg, tracer := instruments(traced)
	tcfg := online.TrainerConfig{
		BatchSize: 8, QueueSize: 256, QueuePolicy: online.Block,
		WindowSize: 256, ReservoirSize: 256, SnapshotEvery: 4,
		Guard: guard.SentinelConfig{Enabled: true}, Gate: gateConfig(), Seed: seed,
		Trace: tracer,
	}
	if reg != nil {
		tcfg.Metrics = online.NewMetrics(reg)
	}
	tr, err := online.NewTrainer(m, opt, ds, tcfg)
	if err != nil {
		return nil, err
	}
	tr.Start()
	return startService(tr, reg, tracer)
}

// setupRepeated sets up setupRepeats times, keeping the last service
// running, and returns it with the median set-up time.  Each set-up starts
// on a collected heap, as in a fresh process, so collecting the previous
// service's garbage does not land in its time.
func setupRepeated(setup func() (*service, error)) (*service, float64, error) {
	var times []float64
	var svc *service
	for i := 0; i < setupRepeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, 0, fmt.Errorf("stop after set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, since(t0))
		svc = s
	}
	return svc, median(times), nil
}

// cellBases are the unjittered predict inputs: a 32-atom Cu cell
// (TinyBuild) and a 108-atom one (Build(1)).
func cellBases() (small, large *md.System, err error) {
	spec, err := md.GetSystem("Cu")
	if err != nil {
		return nil, nil, err
	}
	small, _ = spec.TinyBuild()
	large, _ = spec.Build(1)
	return small, large, nil
}

// predictLoad is one closed-loop predict client.
type predictLoad struct {
	base         string
	rng          *rand.Rand
	small, large *md.System
	largeShare   float64

	lat      latencies
	ops      opCount
	last     time.Time // completion of the last measured request
	problems []string
	smallN   int
	largeN   int
}

func newPredictLoad(base string, seed int64, largeShare float64) (*predictLoad, error) {
	small, large, err := cellBases()
	if err != nil {
		return nil, err
	}
	return &predictLoad{base: base, rng: rand.New(rand.NewSource(seed)), small: small, large: large, largeShare: largeShare}, nil
}

// request draws the next cell size and jittered positions.
func (p *predictLoad) request() ([]byte, int, error) {
	sys := p.small
	if p.rng.Float64() < p.largeShare {
		sys = p.large
	}
	pos := make([]float64, len(sys.Pos))
	for i, x := range sys.Pos {
		pos[i] = x + jitterAngstrom*(2*p.rng.Float64()-1)
	}
	body, err := json.Marshal(serve.PredictRequest{Pos: pos, Box: sys.Box, Types: sys.Types})
	return body, sys.NumAtoms(), err
}

// run issues predicts back to back until until, recording latencies only
// when record is set.
func (p *predictLoad) run(client *http.Client, until time.Time, record bool) {
	for time.Now().Before(until) {
		body, n, err := p.request()
		if err != nil {
			p.problems = append(p.problems, err.Error())
			return
		}
		t0 := time.Now()
		status, payload, err := post(client, p.base+"/v1/predict", body)
		d := time.Since(t0)
		if !record {
			continue
		}
		p.ops.attempted++
		p.last = t0.Add(d)
		if err != nil || status != http.StatusOK {
			p.ops.failed++
			continue
		}
		p.lat.add(d)
		if n == p.small.NumAtoms() {
			p.smallN++
		} else {
			p.largeN++
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(payload, &resp); err != nil {
			p.problems = append(p.problems, fmt.Sprintf("predict response: %v", err))
			continue
		}
		if msg := checkPrediction(resp, n); msg != "" && len(p.problems) < 10 {
			p.problems = append(p.problems, msg)
		}
	}
}

// checkPrediction requires a finite energy and 3N finite forces.
func checkPrediction(resp serve.PredictResponse, atoms int) string {
	if math.IsNaN(resp.Energy) || math.IsInf(resp.Energy, 0) {
		return fmt.Sprintf("predict energy is %v", resp.Energy)
	}
	if len(resp.Forces) != 3*atoms {
		return fmt.Sprintf("predict returned %d force components for %d atoms", len(resp.Forces), atoms)
	}
	for _, f := range resp.Forces {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("predict force is %v", f)
		}
	}
	return ""
}

// newClient returns a keep-alive loopback client for conns concurrent
// callers.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
	}
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	payload, err := io.ReadAll(r.Body)
	return r.StatusCode, payload, err
}

func getJSON(client *http.Client, url string, v any) error {
	r, err := client.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// predictPhase is what runPredictPhase measured.
type predictPhase struct {
	loads    []*predictLoad
	start    time.Time // start of the measured window
	end      time.Time // when statsEnd was read, after during returned
	elapsed  float64   // from window start to the last measured completion
	heapMB   float64
	runtime  runtimeCounters
	statsBeg serve.StatsResponse
	statsEnd serve.StatsResponse
	promBeg  string
	promEnd  string
}

func (ph *predictPhase) latencies() []float64 {
	var all []float64
	for _, l := range ph.loads {
		all = append(all, l.lat.values()...)
	}
	return all
}

// windowed splits the measured window into subWindows equal slices and
// returns, over the slices, the lower quartile of the slice p50 and tail
// quantile and the upper quartile of the slice completion rate.
func (ph *predictPhase) windowed() (p50, tail, perS float64) {
	w := time.Duration(ph.elapsed * float64(time.Second) / subWindows)
	var p50s, tails, rates []float64
	for k := 0; k < subWindows; k++ {
		from := ph.start.Add(time.Duration(k) * w)
		var lat []float64
		for _, l := range ph.loads {
			lat = append(lat, l.lat.within(from, from.Add(w))...)
		}
		p50s = append(p50s, median(lat))
		tails = append(tails, quantile(lat, tailQuantile(len(lat))))
		rates = append(rates, float64(len(lat))/w.Seconds())
	}
	return quantile(p50s, 0.25), quantile(tails, 0.25), quantile(rates, 0.75)
}

func (ph *predictPhase) merge(res *result, kind string) {
	c := res.op(kind)
	for _, l := range ph.loads {
		c.attempted += l.ops.attempted
		c.failed += l.ops.failed
		res.problems = append(res.problems, l.problems...)
	}
}

// runPredictPhase drives closed-loop predict clients against svc: a
// warm-up, then seconds of measured load.  during, when non-nil, starts with
// the measured window and runs to its own end; the phase waits for it.
func runPredictPhase(svc *service, seed int64, clients int, largeShare float64, seconds float64, during func(until time.Time)) (*predictPhase, error) {
	ph := &predictPhase{}
	for i := 0; i < clients; i++ {
		l, err := newPredictLoad(svc.base, seed*31+int64(i), largeShare)
		if err != nil {
			return nil, err
		}
		ph.loads = append(ph.loads, l)
	}
	client := newClient(clients + 2)
	defer client.CloseIdleConnections()

	var wg sync.WaitGroup
	warm := time.Now().Add(warmup)
	for _, l := range ph.loads {
		wg.Add(1)
		go func(l *predictLoad) {
			defer wg.Done()
			l.run(client, warm, false)
		}(l)
	}
	wg.Wait()

	var err error
	if ph.statsBeg, err = svc.stats(); err != nil {
		return nil, err
	}
	ph.promBeg = scrape(svc.reg)
	heap := startHeapSampler()
	rt0 := readRuntime()
	t0 := time.Now()
	ph.start = t0
	until := t0.Add(time.Duration(seconds * float64(time.Second)))
	for _, l := range ph.loads {
		wg.Add(1)
		go func(l *predictLoad) {
			defer wg.Done()
			l.run(client, until, true)
		}(l)
	}
	if during != nil {
		during(until)
	}
	wg.Wait()
	for _, l := range ph.loads {
		if e := l.last.Sub(t0).Seconds(); e > ph.elapsed {
			ph.elapsed = e
		}
	}
	ph.runtime = readRuntime().sub(rt0)
	ph.heapMB = heap.peakMB()
	ph.promEnd = scrape(svc.reg)
	ph.end = time.Now()
	if ph.statsEnd, err = svc.stats(); err != nil {
		return nil, err
	}
	return ph, nil
}

// scrape renders the registry's Prometheus exposition ("" untraced).
func scrape(reg *obs.Registry) string {
	if reg == nil {
		return ""
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	return b.String()
}

// promSample returns the value of one exposition series, given as
// name{labels} exactly as exposed (0 when absent).
func promSample(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series):]), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// routeMeanMs is the mean handler latency of one route over the window
// between two scrapes of the existing per-route histogram.
func routeMeanMs(beg, end, route string) float64 {
	sum := `fekf_http_request_seconds_sum{route="` + route + `"}`
	cnt := `fekf_http_request_seconds_count{route="` + route + `"}`
	n := promSample(end, cnt) - promSample(beg, cnt)
	if n <= 0 {
		return 0
	}
	return 1000 * (promSample(end, sum) - promSample(beg, sum)) / n
}

func runServePredict(o options) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(predictProcs))
	res := newResult()
	phase := func(traced bool, seconds float64) (*predictPhase, *service, float64, error) {
		svc, setupS, err := setupRepeated(func() (*service, error) { return setupTrainerService(o.seed, traced) })
		if err != nil {
			return nil, nil, 0, err
		}
		ph, err := runPredictPhase(svc, o.seed, predictClients, largeCellShare, seconds, nil)
		if serr := svc.stop(); err == nil && serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
		return ph, svc, setupS, err
	}

	if !o.trace {
		ph, _, setupS, err := phase(false, o.seconds)
		if err != nil {
			return nil, err
		}
		ph.merge(res, "predicts")
		lat := ph.latencies()
		tq := tailQuantile(len(lat))
		perS := float64(len(lat)) / ph.elapsed
		res.e2e["setup_s"] = setupS
		res.e2e["heap_peak_mb"] = ph.heapMB
		res.e2e["op_p50_ms"], res.e2e["op_tail_ms"], res.e2e["ops_per_s"] = ph.windowed()
		small, large := 0, 0
		for _, l := range ph.loads {
			small += l.smallN
			large += l.largeN
		}
		res.row("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
		res.row("predict_p50_ms", median(lat), "ms", fmt.Sprintf("%d predicts: %d of 32 atoms, %d of 108", len(lat), small, large))
		res.row("predict_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("%d predicts", len(lat)))
		res.row("predict_tail_ms", quantile(lat, tq), "ms", fmt.Sprintf("p%.0f of %d predicts", 100*tq, len(lat)))
		res.row("predict_per_s", perS, "req/s", fmt.Sprintf("closed-loop clients %d, GOMAXPROCS %d", predictClients, predictProcs))
		res.row("heap_peak_mb", ph.heapMB, "MB", "")
		return res, nil
	}

	// Traced: an untraced half and a traced half; the per-layer metrics
	// come from the traced half, the overhead from comparing the two.
	plain, _, _, err := phase(false, o.seconds/2)
	if err != nil {
		return nil, err
	}
	ph, svc, _, err := phase(true, o.seconds/2)
	if err != nil {
		return nil, err
	}
	plain.merge(res, "predicts")
	ph.merge(res, "predicts")
	lat := ph.latencies()
	L := zeroLayers()
	predictLayers(L, ph)
	L["trace.overhead_pct"] = 100 * (median(lat)/median(plain.latencies()) - 1)
	L["trace.spans"] = float64(countSpans(svc.tracer.Last(0)))
	res.check(svc.tracer.Dropped() == 0, "tracer dropped %d step traces", svc.tracer.Dropped())
	res.layers = L
	res.row("untraced_predict_p50_ms", median(plain.latencies()), "ms", fmt.Sprintf("%d predicts", len(plain.latencies())))
	res.row("traced_predict_p50_ms", median(lat), "ms", fmt.Sprintf("%d predicts", len(lat)))
	return res, nil
}

// predictLayers fills the serve and runtime layer metrics of a traced
// predict phase.
func predictLayers(L map[string]float64, ph *predictPhase) {
	lat := ph.latencies()
	reqs := float64(ph.statsEnd.PredictRequests - ph.statsBeg.PredictRequests)
	if batches := ph.statsEnd.PredictBatches - ph.statsBeg.PredictBatches; batches > 0 {
		L["serve.predict_batch_mean"] = reqs / float64(batches)
	}
	handler := routeMeanMs(ph.promBeg, ph.promEnd, "/v1/predict")
	L["serve.handler_predict_mean_ms"] = handler
	L["serve.client_overhead_ms"] = mean(lat) - handler
	if n := float64(len(lat)); n > 0 {
		L["runtime.alloc_bytes_per_step"] = float64(ph.runtime.allocBytes) / n
		L["runtime.allocs_per_step"] = float64(ph.runtime.allocObjects) / n
	}
	L["runtime.gc_cycles"] = float64(ph.runtime.gcCycles)
}
