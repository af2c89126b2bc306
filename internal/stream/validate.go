package stream

import (
	"fmt"
	"math"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// ValidateFrame checks a streamed frame's structure against a model
// configuration and an expected per-frame atom count (0 accepts any count
// — the first frame then fixes it).  The geometry check
// (deepmd.CheckGeometry) is the one BuildEnv applies, so a frame accepted
// here never stalls gate admission or a training step in the neighbor
// scan.
func ValidateFrame(s *dataset.Snapshot, cfg deepmd.Config, wantAtoms int) error {
	na := s.NumAtoms()
	if na == 0 {
		return fmt.Errorf("stream: frame has no atoms")
	}
	if wantAtoms != 0 && na != wantAtoms {
		return fmt.Errorf("stream: frame has %d atoms, trainer wants %d", na, wantAtoms)
	}
	if len(s.Pos) != 3*na {
		return fmt.Errorf("stream: frame has %d coordinates for %d atoms", len(s.Pos), na)
	}
	if len(s.Forces) != 3*na {
		return fmt.Errorf("stream: frame has %d force components for %d atoms", len(s.Forces), na)
	}
	for i, ty := range s.Types {
		if ty < 0 || ty >= cfg.NumSpecies {
			return fmt.Errorf("stream: atom %d has species %d, table holds %d", i, ty, cfg.NumSpecies)
		}
	}
	for i, v := range s.Forces {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: force component %d is %g", i, v)
		}
	}
	if math.IsNaN(s.Energy) || math.IsInf(s.Energy, 0) {
		return fmt.Errorf("stream: frame energy is %g", s.Energy)
	}
	if err := deepmd.CheckGeometry(cfg, s.Box, s.Pos); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}
