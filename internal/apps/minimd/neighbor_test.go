package minimd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refMinImage is the minimum-image convention as first written, halving l
// on every call.
func refMinImage(d, l float64) float64 {
	if d > l/2 {
		d -= l
	} else if d < -l/2 {
		d += l
	}
	return d
}

// refAtomPos reads atom j's position from the two views, branching on
// owned versus ghost.
func refAtomPos(x, ghostX []float64, n, j int) (float64, float64, float64) {
	if j < n {
		return x[3*j], x[3*j+1], x[3*j+2]
	}
	g := 3 * (j - n)
	return ghostX[g], ghostX[g+1], ghostX[g+2]
}

// refBuildNeighbors is the neighbor build as first written: per-bin index
// lists with a spill list, and the full min-image over every candidate of
// bins b-1, b and b+1. It is the oracle the packed-bin build must match
// element for element, bin views included.
func refBuildNeighbors(st *state) {
	sv := st.views
	rc := st.cfg.Cutoff + 0.3
	rc2 := rc * rc
	total := st.n + st.nGhost

	x, ghostX := sv.x.Data(), sv.ghostX.Data()
	neighList, neighNum := sv.neighList.Data(), sv.neighNum.Data()

	if st.nGhost == 0 {
		for i := 0; i < st.n; i++ {
			xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
			cnt := 0
			for j := 0; j < total; j++ {
				if j == i {
					continue
				}
				xj, yj, zj := refAtomPos(x, ghostX, st.n, j)
				dx := refMinImage(xi-xj, st.lx)
				dy := refMinImage(yi-yj, st.ly)
				dz := refMinImage(zi-zj, st.lzGlob)
				if dx*dx+dy*dy+dz*dz < rc2 && cnt < maxNeighbors {
					neighList[i*maxNeighbors+cnt] = int32(j)
					cnt++
				}
			}
			neighNum[i] = int32(cnt)
		}
		return
	}

	zmin := st.zlo - rc
	binH := rc
	nbins := int((st.lzLocal+2*rc)/binH) + 2
	if nbins > st.views.binCount.Len() {
		nbins = st.views.binCount.Len()
	}
	perBin := sv.binAtoms.Len() / sv.binCount.Len()
	binOf := func(z float64) int {
		b := int((z - zmin) / binH)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		return b
	}
	binCount, binAtoms := sv.binCount.Data(), sv.binAtoms.Data()
	clear(binCount[:nbins])
	var spill []int32
	for j := 0; j < total; j++ {
		_, _, z := refAtomPos(x, ghostX, st.n, j)
		b := binOf(z)
		cnt := int(binCount[b])
		if cnt < perBin {
			binAtoms[b*perBin+cnt] = int32(j)
			binCount[b] = int32(cnt + 1)
		} else {
			spill = append(spill, int32(j))
		}
	}
	bins := make([][]int32, nbins)
	for b := range bins {
		bins[b] = append(bins[b], binAtoms[b*perBin:b*perBin+int(binCount[b])]...)
	}
	for _, j := range spill {
		_, _, z := refAtomPos(x, ghostX, st.n, int(j))
		bins[binOf(z)] = append(bins[binOf(z)], j)
	}

	for i := 0; i < st.n; i++ {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		cnt := 0
		b := binOf(zi)
		for db := -1; db <= 1; db++ {
			bb := b + db
			if bb < 0 || bb >= nbins {
				continue
			}
			for _, j32 := range bins[bb] {
				j := int(j32)
				if j == i {
					continue
				}
				xj, yj, zj := refAtomPos(x, ghostX, st.n, j)
				dx := refMinImage(xi-xj, st.lx)
				dy := refMinImage(yi-yj, st.ly)
				dz := zi - zj
				if dx*dx+dy*dy+dz*dz < rc2 && cnt < maxNeighbors {
					neighList[i*maxNeighbors+cnt] = int32(j)
					cnt++
				}
			}
		}
		neighNum[i] = int32(cnt)
	}
}

// refLJForce is the force kernel as first written, reading positions
// through refAtomPos; it writes f and returns the potential energy.
func refLJForce(st *state) float64 {
	sv := st.views
	rc2 := st.cfg.Cutoff * st.cfg.Cutoff
	sr2c := 1.0 / rc2
	sr6c := sr2c * sr2c * sr2c
	eShift := 4 * (sr6c*sr6c - sr6c)

	x, ghostX, f := sv.x.Data(), sv.ghostX.Data(), sv.f.Data()
	neighList, neighNum := sv.neighList.Data(), sv.neighNum.Data()

	var pe float64
	for i := 0; i < st.n; i++ {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		var fx, fy, fz, pei float64
		nn := int(neighNum[i])
		list := neighList[i*maxNeighbors:]
		for k := 0; k < nn; k++ {
			xj, yj, zj := refAtomPos(x, ghostX, st.n, int(list[k]))
			dx := refMinImage(xi-xj, st.lx)
			dy := refMinImage(yi-yj, st.ly)
			dz := zi - zj
			if st.nGhost == 0 {
				dz = refMinImage(dz, st.lzGlob)
			}
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			sr2 := 1.0 / r2
			sr6 := sr2 * sr2 * sr2
			fpair := 24 * sr2 * sr6 * (2*sr6 - 1)
			fx += fpair * dx
			fy += fpair * dy
			fz += fpair * dz
			pei += 0.5 * (4*(sr6*sr6-sr6) - eShift)
		}
		f[3*i], f[3*i+1], f[3*i+2] = fx, fy, fz
		pe += pei
	}
	return pe
}

// newSystem builds the p rank states of one slab-decomposed system.
func newSystem(p int) []*state {
	cfg := testCfg
	cfg.normalize()
	sts := make([]*state, p)
	for r := range sts {
		sts[r] = newState(&cfg, r, p)
	}
	return sts
}

// exchangeGhosts fills every rank's ghosts from its neighbours'
// packBorders, as setupBorders and communicate do over MPI: the down
// neighbour's up-borders first, then the up neighbour's down-borders,
// shifted by the global box height across the periodic z boundary.
func exchangeGhosts(sts []*state) {
	p := len(sts)
	if p == 1 {
		sts[0].nGhost = 0
		return
	}
	down := make([]int, p)
	up := make([]int, p)
	for r, st := range sts {
		down[r], up[r] = st.packBorders()
	}
	for me, st := range sts {
		dn, upN := (me-1+p)%p, (me+1)%p
		fromDown := sts[dn].views.sendBuf.Data()[3*down[dn] : 3*(down[dn]+up[dn])]
		fromUp := sts[upN].views.sendBuf.Data()[:3*down[upN]]
		g := st.views.ghostX.Data()
		copy(g, fromDown)
		copy(g[len(fromDown):], fromUp)
		st.nGhost = up[dn] + down[upN]
		for k := 0; k < st.nGhost; k++ {
			switch {
			case me == 0 && k < up[dn]:
				g[3*k+2] -= st.lzGlob
			case me == p-1 && k >= up[dn]:
				g[3*k+2] += st.lzGlob
			}
		}
	}
}

// verletDrift is the first half-kick and drift of one step, then the x,y
// wrap.
func verletDrift(st *state) {
	sv := st.views
	dt := st.cfg.Dt
	for a := 0; a < st.n; a++ {
		for d := 0; d < 3; d++ {
			sv.v.Set2(a, d, sv.v.At2(a, d)+0.5*dt*sv.f.At2(a, d))
			sv.x.Set2(a, d, sv.x.At2(a, d)+dt*sv.v.At2(a, d))
		}
	}
	st.wrapXY()
}

// TestNeighborBuildMatchesReference checks the packed-bin neighbor build
// and the force kernel against the kernels as first written, on 1-, 2-
// and 4-rank systems: identical neighbor lists and bin views,
// bitwise-equal forces and potential energy. The lattice cases run
// Verlet steps with periodic sorts and rebuilds, so atoms wrap and bins
// overflow their bin_atoms capacity; the random cases scatter the atoms
// uniformly over each slab, so that pair distances are not confined to
// the lattice's shells and candidates fall on both sides of the cutoff,
// in z alone and in the full distance.
func TestNeighborBuildMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lattice/ranks=%d", p), func(t *testing.T) {
			sts := newSystem(p)
			wrapped, spilled := false, false
			for step := 0; step < 40; step++ {
				for _, st := range sts {
					for i := 0; i < st.n; i++ {
						x, y := st.views.x.At2(i, 0), st.views.x.At2(i, 1)
						wrapped = wrapped || x < 0 || y < 0 || x >= st.lx || y >= st.ly
					}
					verletDrift(st)
				}
				rebuild := step%5 == 0
				if rebuild {
					for _, st := range sts {
						st.sortAtoms()
					}
				}
				exchangeGhosts(sts)
				for r, st := range sts {
					where := fmt.Sprintf("step %d rank %d", step, r)
					if rebuild {
						spilled = checkNeighbors(t, st, where) || spilled
					}
					checkForce(t, st, where)
				}
			}
			if !wrapped {
				t.Error("no atom crossed an x/y box edge: the wrapped case went untested")
			}
			if p > 1 && !spilled {
				t.Error("no bin overflowed its bin_atoms capacity: the spill order went untested")
			}
		})
		t.Run(fmt.Sprintf("random/ranks=%d", p), func(t *testing.T) {
			sts := newSystem(p)
			rng := sim.NewRNG(uint64(p))
			for trial := 0; trial < 10; trial++ {
				for _, st := range sts {
					x := st.views.x.Data()
					for i := 0; i < st.n; i++ {
						x[3*i] = rng.Float64() * st.lx
						x[3*i+1] = rng.Float64() * st.ly
						x[3*i+2] = st.zlo + rng.Float64()*st.lzLocal
					}
				}
				exchangeGhosts(sts)
				for r, st := range sts {
					where := fmt.Sprintf("trial %d rank %d", trial, r)
					checkNeighbors(t, st, where)
					checkForce(t, st, where)
				}
			}
		})
	}
}

// checkNeighbors rebuilds st's neighbor lists with the packed-bin build
// and with the reference, requires identical lists and bin views, and
// reports whether some bin held more atoms than its bin_atoms capacity.
func checkNeighbors(t *testing.T, st *state, where string) (spilled bool) {
	t.Helper()
	st.buildNeighbors()
	got := snapshotNeighbors(st)
	refBuildNeighbors(st)
	want := snapshotNeighbors(st)
	if err := got.diff(want); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	for b := 0; b+1 < len(st.nbins.start); b++ {
		spilled = spilled || int(st.nbins.start[b+1]-st.nbins.start[b]) > int(want.binCount[b])
	}
	return spilled
}

// checkForce evaluates st's forces with ljForce and with the reference
// and requires bitwise-equal forces and potential energy.
func checkForce(t *testing.T, st *state, where string) {
	t.Helper()
	pe := st.ljForce()
	f := slices.Clone(st.views.f.Data())
	if refPE := refLJForce(st); math.Float64bits(pe) != math.Float64bits(refPE) {
		t.Fatalf("%s: PE %v, reference %v", where, pe, refPE)
	}
	for k, v := range st.views.f.Data() {
		if math.Float64bits(v) != math.Float64bits(f[k]) {
			t.Fatalf("%s: f[%d] = %v, reference %v", where, k, f[k], v)
		}
	}
}

// neighborState is a copy of the views a neighbor build writes.
type neighborState struct {
	neighNum, neighList, binCount, binAtoms []int32
}

func snapshotNeighbors(st *state) neighborState {
	sv := st.views
	return neighborState{
		neighNum:  slices.Clone(sv.neighNum.Data()),
		neighList: slices.Clone(sv.neighList.Data()),
		binCount:  slices.Clone(sv.binCount.Data()),
		binAtoms:  slices.Clone(sv.binAtoms.Data()),
	}
}

func (a neighborState) diff(b neighborState) error {
	for _, c := range []struct {
		name string
		a, b []int32
	}{
		{"neigh_num", a.neighNum, b.neighNum},
		{"neigh_list", a.neighList, b.neighList},
		{"bin_count", a.binCount, b.binCount},
		{"bin_atoms", a.binAtoms, b.binAtoms},
	} {
		for k := range c.a {
			if c.a[k] != c.b[k] {
				return fmt.Errorf("%s[%d] = %d, reference %d", c.name, k, c.a[k], c.b[k])
			}
		}
	}
	return nil
}

// TestWrapXYMatchesMod checks the one-edge shift against math.Mod on the
// edge cases of its fast path and of the fallback.
func TestWrapXYMatchesMod(t *testing.T) {
	cfg := testCfg
	cfg.normalize()
	st := newState(&cfg, 0, 1)
	l := st.lx
	vals := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, l, math.Nextafter(l, 0), math.Nextafter(l, 3*l),
		2 * l, math.Nextafter(2*l, 0), -l, math.Nextafter(-l, 0), math.Nextafter(-l, -3*l),
		-0.005, l + 0.005, 7.5 * l, -7.5 * l, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range vals {
		want := math.Mod(v, l)
		if want < 0 {
			want += l
		}
		st.views.x.Set2(0, 0, v)
		st.wrapXY()
		if got := st.views.x.At2(0, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("wrapXY(%v) = %v (%#x), math.Mod gives %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestMiniMDKernelsAllocateNothing checks that a warm neighbor rebuild,
// force evaluation and atom sort reuse their per-state buffers.
func TestMiniMDKernelsAllocateNothing(t *testing.T) {
	st := benchState(t)
	for name, fn := range map[string]func(){
		"buildNeighbors": st.buildNeighbors,
		"ljForce":        func() { st.ljForce() },
		"sortAtoms":      st.sortAtoms,
	} {
		fn()
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v times", name, n)
		}
	}
}

// benchState returns rank 1 of a 4-rank system with ghosts and neighbor
// lists in place: 108 owned atoms, 90 ghosts and 1 944 neighbor pairs.
func benchState(tb testing.TB) *state {
	tb.Helper()
	sts := newSystem(4)
	exchangeGhosts(sts)
	st := sts[1]
	st.buildNeighbors()
	pairs := 0
	for _, c := range st.views.neighNum.Data() {
		pairs += int(c)
	}
	if st.n != 108 || st.nGhost != 90 || pairs != 1944 {
		tb.Fatalf("bench geometry: %d atoms, %d ghosts, %d pairs; want 108, 90, 1944", st.n, st.nGhost, pairs)
	}
	return st
}

// BenchmarkMiniMDNeighbors times one neighbor-list rebuild of a 4-rank
// geometry's rank.
func BenchmarkMiniMDNeighbors(b *testing.B) {
	st := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.buildNeighbors()
	}
}

// benchPE keeps the benchmarked potential energy live.
var benchPE float64

// BenchmarkMiniMDForce times one Lennard-Jones force evaluation over the
// same rank's neighbor lists.
func BenchmarkMiniMDForce(b *testing.B) {
	st := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPE = st.ljForce()
	}
}
