package minimd

import (
	"math"
	"testing"
)

// singleRankState builds a 1-rank state with neighbor lists ready.
func singleRankState(t *testing.T) *state {
	t.Helper()
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 0, 1)
	st.nGhost = 0
	st.buildNeighbors()
	return st
}

func TestNewtonThirdLawNetForce(t *testing.T) {
	// With full periodic boundaries every pair is counted from both
	// sides, so the total force must vanish (momentum conservation).
	st := singleRankState(t)
	st.ljForce()
	var fx, fy, fz float64
	for i := 0; i < st.n; i++ {
		fx += st.views.f.At2(i, 0)
		fy += st.views.f.At2(i, 1)
		fz += st.views.f.At2(i, 2)
	}
	if math.Abs(fx) > 1e-9 || math.Abs(fy) > 1e-9 || math.Abs(fz) > 1e-9 {
		t.Fatalf("net force (%v, %v, %v) != 0", fx, fy, fz)
	}
}

func TestEnergyConservationOverVerletSteps(t *testing.T) {
	// Velocity Verlet on the LJ solid conserves total energy to a small
	// drift over a few hundred steps.
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 0, 1)
	st.nGhost = 0
	st.buildNeighbors()
	pe := st.ljForce()
	e0 := pe + st.kineticEnergy()
	sv := st.views
	dt := cfg.Dt
	for step := 0; step < 300; step++ {
		for a := 0; a < st.n; a++ {
			for d := 0; d < 3; d++ {
				sv.v.Set2(a, d, sv.v.At2(a, d)+0.5*dt*sv.f.At2(a, d))
				sv.x.Set2(a, d, sv.x.At2(a, d)+dt*sv.v.At2(a, d))
			}
		}
		st.wrapXY()
		if step%10 == 0 {
			st.buildNeighbors()
		}
		pe = st.ljForce()
		for a := 0; a < st.n; a++ {
			for d := 0; d < 3; d++ {
				sv.v.Set2(a, d, sv.v.At2(a, d)+0.5*dt*sv.f.At2(a, d))
			}
		}
	}
	e1 := pe + st.kineticEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Fatalf("energy drift %.4f (E %v -> %v) exceeds 2%%", drift, e0, e1)
	}
}

func TestForceSymmetryUnderTranslation(t *testing.T) {
	// Rigidly translating all atoms (mod the box) leaves forces invariant.
	st := singleRankState(t)
	st.ljForce()
	f0 := make([]float64, st.n)
	for i := 0; i < st.n; i++ {
		f0[i] = st.views.f.At2(i, 0)
	}
	for i := 0; i < st.n; i++ {
		st.views.x.Set2(i, 1, st.views.x.At2(i, 1)+0.25)
	}
	st.wrapXY()
	st.buildNeighbors()
	st.ljForce()
	for i := 0; i < st.n; i++ {
		if math.Abs(st.views.f.At2(i, 0)-f0[i]) > 1e-9 {
			t.Fatalf("atom %d x-force changed under y-translation: %v vs %v",
				i, st.views.f.At2(i, 0), f0[i])
		}
	}
}

func TestMinImage(t *testing.T) {
	cases := []struct{ d, l, want float64 }{
		{0.4, 1.0, 0.4},
		{0.6, 1.0, -0.4},
		{-0.6, 1.0, 0.4},
		{0.5, 1.0, 0.5}, // boundary: |d| == l/2 stays
		{-0.5, 1.0, -0.5},
		{0, 1, 0},
	}
	for _, c := range cases {
		if got := minImage(c.d, c.l, c.l/2); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("minImage(%v,%v) = %v, want %v", c.d, c.l, got, c.want)
		}
	}
}

func TestPackBordersSelectsFaces(t *testing.T) {
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 1, 4) // middle rank of 4
	down, up := st.packBorders()
	if down <= 0 || up <= 0 {
		t.Fatalf("border counts %d/%d", down, up)
	}
	rc := cfg.Cutoff + 0.3
	sv := st.views
	// Every selected down-border atom is within rc of the lower face.
	for k := 0; k < down; k++ {
		i := int(sv.borderIdx.At(k))
		if sv.x.At2(i, 2)-st.zlo >= rc {
			t.Fatalf("down-border atom %d at depth %v >= %v", i, sv.x.At2(i, 2)-st.zlo, rc)
		}
	}
	for k := down; k < down+up; k++ {
		i := int(sv.borderIdx.At(k))
		if st.zlo+st.lzLocal-sv.x.At2(i, 2) >= rc {
			t.Fatalf("up-border atom %d too deep", i)
		}
	}
}

func TestGhostConsistencyAcrossRanks(t *testing.T) {
	// Build two adjacent rank states and verify that the ghosts rank 0
	// would receive from rank 1's down-border match rank 1's atoms.
	cfg := testCfg
	cfg.normalize()
	st0 := newState(&cfg, 0, 2)
	st1 := newState(&cfg, 1, 2)
	down1, _ := st1.packBorders()
	// st1's down-border atoms are just above st0's slab.
	for k := 0; k < down1; k++ {
		i := int(st1.views.borderIdx.At(k))
		z := st1.views.x.At2(i, 2)
		if z < st0.zlo+st0.lzLocal-0.01 {
			t.Fatalf("rank 1 down-border atom %d at z=%v inside rank 0's slab", i, z)
		}
		if z-st0.zlo-st0.lzLocal > cfg.Cutoff+0.31 {
			t.Fatalf("rank 1 down-border atom %d at z=%v too far from the boundary", i, z)
		}
	}
}

func TestChecksumSensitivity(t *testing.T) {
	st := singleRankState(t)
	c0 := st.checksum()
	st.views.x.Set2(3, 1, st.views.x.At2(3, 1)+1e-9)
	if st.checksum() == c0 {
		t.Fatal("checksum insensitive to a position perturbation")
	}
}

func TestSortAtomsPermutesConsistently(t *testing.T) {
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 0, 1)
	sv := st.views

	// Record (id -> position/velocity) before sorting.
	type atom struct{ x, y, z, vx float64 }
	before := map[int32]atom{}
	for i := 0; i < st.n; i++ {
		before[sv.atomID.At(i)] = atom{sv.x.At2(i, 0), sv.x.At2(i, 1), sv.x.At2(i, 2), sv.v.At2(i, 0)}
	}

	st.sortAtoms()

	// Sorted by z (non-decreasing keys).
	for i := 1; i < st.n; i++ {
		if int32(sv.x.At2(i, 2)*1024) < int32(sv.x.At2(i-1, 2)*1024) {
			t.Fatalf("atoms not z-sorted at %d", i)
		}
	}
	// Every atom's data moved together with its id.
	seen := map[int32]bool{}
	for i := 0; i < st.n; i++ {
		id := sv.atomID.At(i)
		if seen[id] {
			t.Fatalf("duplicate id %d after sort", id)
		}
		seen[id] = true
		b := before[id]
		if sv.x.At2(i, 0) != b.x || sv.x.At2(i, 1) != b.y || sv.x.At2(i, 2) != b.z || sv.v.At2(i, 0) != b.vx {
			t.Fatalf("atom id %d data scrambled by sort", id)
		}
	}
}

func TestSortAtomsDeterministic(t *testing.T) {
	cfg := testCfg
	cfg.normalize()
	a := newState(&cfg, 0, 1)
	b := newState(&cfg, 0, 1)
	a.sortAtoms()
	b.sortAtoms()
	for i := 0; i < a.n; i++ {
		if a.views.atomID.At(i) != b.views.atomID.At(i) {
			t.Fatalf("sort nondeterministic at %d", i)
		}
	}
}

func TestBinViewsPopulated(t *testing.T) {
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 1, 4)
	// Fake a small ghost set so the binned path runs.
	st.nGhost = 0
	st.views.haloSizes.Set(hsDownRecv, 0)
	st.views.haloSizes.Set(hsUpRecv, 0)
	// Multi-rank state but no ghosts: force the binned path by setting one.
	st.nGhost = 1
	st.views.ghostX.Set2(0, 0, 0)
	st.views.ghostX.Set2(0, 1, 0)
	st.views.ghostX.Set2(0, 2, st.zlo-0.5)
	st.buildNeighbors()
	total := 0
	for b := 0; b < st.views.binCount.Len(); b++ {
		total += int(st.views.binCount.At(b))
	}
	if total == 0 {
		t.Fatal("bin views not populated by neighbor build")
	}
	if total > st.n+st.nGhost {
		t.Fatalf("bin views hold %d entries for %d atoms", total, st.n+st.nGhost)
	}
}
