package online

import (
	"errors"
	"math"
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// TestValidateFrameRejectsNonFiniteAndHostileGeometry: non-finite labels,
// coordinates or box edges, and a cell too small for the neighbor scan,
// are refused at ingest rather than stalling gate admission or a step.
func TestValidateFrameRejectsNonFiniteAndHostileGeometry(t *testing.T) {
	ds, m, opt := onlineSetup(t)
	tr, err := NewTrainer(m, opt, ds, TrainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	good := ds.Snapshots[0]
	clone := func(edit func(s *dataset.Snapshot)) *dataset.Snapshot {
		s := good
		s.Pos = append([]float64(nil), good.Pos...)
		s.Forces = append([]float64(nil), good.Forces...)
		edit(&s)
		return &s
	}
	inf := math.Inf(1)
	for name, s := range map[string]*dataset.Snapshot{
		"nan energy":   clone(func(s *dataset.Snapshot) { s.Energy = math.NaN() }),
		"inf force":    clone(func(s *dataset.Snapshot) { s.Forces[4] = -inf }),
		"nan position": clone(func(s *dataset.Snapshot) { s.Pos[2] = math.NaN() }),
		"inf box":      clone(func(s *dataset.Snapshot) { s.Box[1] = inf }),
		"tiny box":     clone(func(s *dataset.Snapshot) { s.Box = [3]float64{0.01, 0.01, 0.01} }),
	} {
		err := tr.ValidateFrame(s)
		if err == nil {
			t.Fatalf("%s: frame passed validation", name)
		}
		if name == "tiny box" && !errors.Is(err, deepmd.ErrBadGeometry) {
			t.Fatalf("%s: err %v, want ErrBadGeometry", name, err)
		}
	}
}
