package deepmd

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fekf/internal/dataset"
	"fekf/internal/md"
	"fekf/internal/tensor"
)

// EnvEntry records one occupied neighbor slot and the derivative of its R̃
// row with respect to the displacement vector, the constant geometric data
// the force chain rule needs.
type EnvEntry struct {
	Row  int           // row index within R[t]
	I, J int           // center and neighbor atom indices (global over the batch)
	A    [4][3]float64 // ∂R̃[Row,c]/∂d_dim
}

// Env is the stacked environment-matrix input of a minibatch: B images of
// Na atoms each, with per-neighbor-type matrices R[t] of shape
// ((B·Na·Nm_t) × 4).  Entries[t] lists the occupied slots of R[t].
type Env struct {
	Cfg     Config
	B       int   // number of images
	NaPer   int   // atoms per image
	Types   []int // center species, length B·Na (image-major)
	R       []*tensor.Dense
	Entries [][]EnvEntry
	// TypeRows[c] lists the global atom rows having center species c, in
	// ascending order: the gather indices for the per-species fitting net.
	TypeRows [][]int
}

// NumAtoms returns the total atom count B·Na.
func (e *Env) NumAtoms() int { return e.B * e.NaPer }

// ErrBadGeometry marks a frame whose geometry BuildEnv refuses; see
// CheckGeometry.
var ErrBadGeometry = errors.New("deepmd: unusable frame geometry")

// MaxImageLattice bounds the periodic-image lattice the neighbor scan may
// walk for a frame: Π_d (2·⌈Rc/L_d⌉+1) images per atom pair.  9³ admits
// every edge down to Rc/4; a condensed-phase cell is never near it, while
// a hostile 0.01 Å box would otherwise walk ~10⁹ images.
const MaxImageLattice = 9 * 9 * 9

// CheckGeometry reports whether BuildEnv can build a frame's neighbor
// lists under cfg's cutoff: every box edge finite and positive, every
// position finite, and the periodic-image lattice within MaxImageLattice.
// Errors wrap ErrBadGeometry.
func CheckGeometry(cfg Config, box [3]float64, pos []float64) error {
	lattice := 1.0
	for d, l := range box {
		if !(l > 0) || math.IsInf(l, 1) {
			return fmt.Errorf("%w: box edge %d is %g", ErrBadGeometry, d, l)
		}
		lattice *= 2*math.Ceil(cfg.Rc/l) + 1
	}
	if lattice > MaxImageLattice {
		return fmt.Errorf("%w: box %v needs %.3g periodic images at cutoff %g (limit %d)",
			ErrBadGeometry, box, lattice, cfg.Rc, MaxImageLattice)
	}
	for i, x := range pos {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: coordinate %d is %g", ErrBadGeometry, i, x)
		}
	}
	return nil
}

// BuildEnv constructs the environment input for a batch of systems, which
// must share the species table and atom count (images of one dataset).
// Each system must pass CheckGeometry; the check runs before any neighbor
// scan, so a hostile cell costs O(atoms), never the image walk.
func BuildEnv(cfg Config, systems []*md.System) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("deepmd: BuildEnv with no systems")
	}
	na := systems[0].NumAtoms()
	for k, s := range systems {
		if s.NumAtoms() != na {
			return nil, fmt.Errorf("deepmd: image %d has %d atoms, image 0 has %d", k, s.NumAtoms(), na)
		}
		if len(s.Species) != cfg.NumSpecies {
			return nil, fmt.Errorf("deepmd: image %d has %d species, config %d", k, len(s.Species), cfg.NumSpecies)
		}
		if err := CheckGeometry(cfg, s.Box, s.Pos); err != nil {
			return nil, fmt.Errorf("image %d: %w", k, err)
		}
	}
	b := len(systems)
	env := &Env{
		Cfg: cfg, B: b, NaPer: na,
		Types:    make([]int, 0, b*na),
		R:        make([]*tensor.Dense, cfg.NumSpecies),
		Entries:  make([][]EnvEntry, cfg.NumSpecies),
		TypeRows: make([][]int, cfg.NumSpecies),
	}
	for t := 0; t < cfg.NumSpecies; t++ {
		env.R[t] = tensor.New(b*na*cfg.MaxNeighbors[t], 4)
	}
	sc := md.SmoothCutoff{Rcs: cfg.Rcs, Rc: cfg.Rc}

	for ib, sys := range systems {
		nl := md.BuildNeighbors(sys, cfg.Rc)
		for i := 0; i < na; i++ {
			gi := ib*na + i // global atom row
			env.Types = append(env.Types, sys.Types[i])
			env.TypeRows[sys.Types[i]] = append(env.TypeRows[sys.Types[i]], gi)

			// bucket neighbors by species, nearest first
			byType := make([][]md.Neighbor, cfg.NumSpecies)
			for _, nb := range nl.Lists[i] {
				t := sys.Types[nb.J]
				byType[t] = append(byType[t], nb)
			}
			for t := range byType {
				sort.Slice(byType[t], func(a, b int) bool { return byType[t][a].R < byType[t][b].R })
				nm := cfg.MaxNeighbors[t]
				lst := byType[t]
				if len(lst) > nm {
					lst = lst[:nm]
				}
				base := gi * nm
				for slot, nb := range lst {
					s, ds := sc.Eval(nb.R)
					if s == 0 && ds == 0 {
						continue
					}
					row := base + slot
					r := nb.R
					ux, uy, uz := nb.Dx/r, nb.Dy/r, nb.Dz/r
					env.R[t].Set(row, 0, s)
					env.R[t].Set(row, 1, s*ux)
					env.R[t].Set(row, 2, s*uy)
					env.R[t].Set(row, 3, s*uz)

					var a [4][3]float64
					u := [3]float64{ux, uy, uz}
					d := [3]float64{nb.Dx, nb.Dy, nb.Dz}
					for dim := 0; dim < 3; dim++ {
						a[0][dim] = ds * u[dim]
					}
					for c := 0; c < 3; c++ {
						for dim := 0; dim < 3; dim++ {
							v := ds * u[dim] * u[c]
							if c == dim {
								v += s / r
							}
							v -= s * d[c] * d[dim] / (r * r * r)
							a[1+c][dim] = v
						}
					}
					env.Entries[t] = append(env.Entries[t], EnvEntry{
						Row: row, I: gi, J: ib*na + nb.J, A: a,
					})
				}
			}
		}
	}
	return env, nil
}

// SnapshotSystem wraps a dataset snapshot as an md.System for BuildEnv.
func SnapshotSystem(ds *dataset.Dataset, snap *dataset.Snapshot) *md.System {
	return &md.System{
		Box:     snap.Box,
		Pos:     snap.Pos,
		Types:   snap.Types,
		Species: ds.Species,
	}
}

// BuildBatchEnv builds the environment input for the dataset snapshots
// selected by idx.
func BuildBatchEnv(cfg Config, ds *dataset.Dataset, idx []int) (*Env, error) {
	systems := make([]*md.System, len(idx))
	for k, i := range idx {
		systems[k] = SnapshotSystem(ds, &ds.Snapshots[i])
	}
	return BuildEnv(cfg, systems)
}
