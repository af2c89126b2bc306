package deepmd

import (
	"errors"
	"math"
	"testing"
	"time"

	"fekf/internal/md"
)

// TestBuildEnvRejectsHostileGeometry: a cell whose periodic-image lattice
// exceeds MaxImageLattice, or any non-finite edge or coordinate, is refused
// with ErrBadGeometry before the neighbor scan, while the real cell (and
// one at the Rc/4 edge of the bound) still builds.
func TestBuildEnvRejectsHostileGeometry(t *testing.T) {
	ds := testData(t, "Cu", 1)
	good := SnapshotSystem(ds, &ds.Snapshots[0])
	cfg := TinyConfig(good)
	if _, err := BuildEnv(cfg, []*md.System{good}); err != nil {
		t.Fatal(err)
	}
	one := func(box [3]float64, x float64) *md.System {
		return &md.System{Box: box, Pos: []float64{x, 0, 0}, Types: good.Types[:1], Species: good.Species}
	}
	edge := cfg.Rc / 4
	if _, err := BuildEnv(cfg, []*md.System{one([3]float64{edge, edge, edge}, 0)}); err != nil {
		t.Fatalf("cell at the lattice bound refused: %v", err)
	}
	inf := math.Inf(1)
	for _, sys := range []*md.System{
		one([3]float64{0.01, 0.01, 0.01}, 0),
		one([3]float64{edge * 0.99, edge, edge}, 0),
		one([3]float64{inf, 10, 10}, 0),
		one([3]float64{10, math.NaN(), 10}, 0),
		one([3]float64{10, 10, 0}, 0),
		one([3]float64{10, 10, 10}, math.NaN()),
		one([3]float64{10, 10, 10}, inf),
	} {
		t0 := time.Now()
		_, err := BuildEnv(cfg, []*md.System{sys})
		if !errors.Is(err, ErrBadGeometry) {
			t.Fatalf("box %v pos %v: err %v, want ErrBadGeometry", sys.Box, sys.Pos, err)
		}
		if el := time.Since(t0); el > time.Second {
			t.Fatalf("box %v: rejection took %v", sys.Box, el)
		}
	}
}
