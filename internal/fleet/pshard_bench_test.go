package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"fekf/internal/stream"
)

// benchFleet builds a warm fleet in the given covariance mode, ready to
// step: frames ingested and queues drained.
func benchFleet(tb testing.TB, replicas int, pshard bool) (*Fleet, func()) {
	tb.Helper()
	cfg := Config{Seed: 42, Gate: stream.GateConfig{Enabled: false}, PShard: pshard}
	ds, f := newTestFleet(tb, replicas, cfg)
	for i := 0; i < 4*replicas; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i%ds.Len()]); !ok || err != nil {
			tb.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	return f, func() {
		if f.WeightDrift() != 0 || f.PDrift() != 0 {
			tb.Fatalf("drift after benchmark steps: %g / %g", f.WeightDrift(), f.PDrift())
		}
	}
}

// maxResidentPBytes returns the largest per-replica resident covariance
// footprint — full P for every rank under replication, the biggest slab
// share under sharding.
func maxResidentPBytes(f *Fleet) int64 {
	var m int64
	for _, r := range f.reps {
		if v := r.pBytes.Load(); v > m {
			m = v
		}
	}
	return m
}

// BenchmarkPShardStep pits one sharded lockstep step against its
// replicated twin at 1/2/4 ranks.  Wall time captures the cost of the
// extra P·g exchange collective; the reported P-bytes/rank metric is the
// memory headline — under sharding it shrinks toward 1/R of the full
// covariance while the replicated fleet holds a full copy per rank.
func BenchmarkPShardStep(b *testing.B) {
	for _, mode := range []struct {
		name   string
		pshard bool
	}{{"replicated", false}, {"pshard", true}} {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, n), func(b *testing.B) {
				f, check := benchFleet(b, n, mode.pshard)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.step()
				}
				b.StopTimer()
				check()
				b.ReportMetric(float64(maxResidentPBytes(f)), "P-bytes/rank")
			})
		}
	}
}

// pshardBenchRow is one mode × rank-count measurement of the BENCH JSON
// table.
type pshardBenchRow struct {
	Mode                 string  `json:"mode"`
	Replicas             int     `json:"replicas"`
	Steps                int     `json:"steps"`
	StepSecondsMean      float64 `json:"step_seconds_mean"`
	MaxResidentPBytes    int64   `json:"max_resident_p_bytes"`
	SumResidentPBytes    int64   `json:"sum_resident_p_bytes"`
	ResidentFractionMax  float64 `json:"resident_fraction_max"`
	ExchangeBytesPerStep int64   `json:"exchange_bytes_per_step"`
}

// TestPShardBenchJSON dumps the replicated-vs-sharded comparison as a JSON
// table (step wall time, per-rank resident P bytes, exchange traffic) for
// offline tracking.  Gated on FEKF_BENCH_JSON naming the output path so
// plain `go test` stays fast; run it via `make bench-json`.
func TestPShardBenchJSON(t *testing.T) {
	path := os.Getenv("FEKF_BENCH_JSON")
	if path == "" {
		t.Skip("set FEKF_BENCH_JSON=<path> to write the pshard benchmark table")
	}
	const steps = 3
	var rows []pshardBenchRow
	for _, mode := range []struct {
		name   string
		pshard bool
	}{{"replicated", false}, {"pshard", true}} {
		for _, n := range []int{1, 2, 4} {
			f, check := benchFleet(t, n, mode.pshard)
			t0 := time.Now()
			for i := 0; i < steps; i++ {
				f.step()
			}
			elapsed := time.Since(t0)
			check()
			if f.Steps() != steps {
				t.Fatalf("%s/replicas=%d: %d steps, want %d (last error %q)",
					mode.name, n, f.Steps(), steps, f.Stats().LastError)
			}
			row := pshardBenchRow{
				Mode:            mode.name,
				Replicas:        n,
				Steps:           steps,
				StepSecondsMean: elapsed.Seconds() / steps,
			}
			var full int64
			for _, r := range f.reps {
				v := r.pBytes.Load()
				row.SumResidentPBytes += v
				if v > row.MaxResidentPBytes {
					row.MaxResidentPBytes = v
				}
			}
			if ps := f.pstats.Load(); ps != nil {
				full = ps.TotalBytes
				row.ExchangeBytesPerStep = ps.ExchangeBytesPerStep
			} else {
				full = f.reps[0].opt.PBytes()
			}
			if full > 0 {
				row.ResidentFractionMax = float64(row.MaxResidentPBytes) / float64(full)
			}
			rows = append(rows, row)
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d rows to %s", len(rows), path)
}
