package minimd

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// lattice constant: nearest-neighbour distance a/sqrt(2) equals the LJ
// equilibrium separation 2^(1/6), so the FCC solid is near its energy
// minimum and the dynamics stay bounded.
const latticeA = 1.5874

// fccOffsets are the four atom positions within a unit cell (in units of
// the lattice constant).
var fccOffsets = [4][3]float64{
	{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5},
}

// state is one rank's MD state: the view inventory plus run geometry.
type state struct {
	views *systemViews
	cfg   *Config

	n       int     // owned atoms
	nGhost  int     // current ghost count
	lx, ly  float64 // box edge in x,y (periodic per rank)
	lzLocal float64 // slab thickness
	lzGlob  float64 // global box height
	zlo     float64 // slab lower bound (global coords)

	simAtoms  int
	simGhosts int

	// ghostUp and ghostDown receive the neighbours' border positions,
	// reused across steps.
	ghostUp, ghostDown []float64
	// nbins holds the z-bins of the last neighbor rebuild, reused by the
	// next one.
	nbins neighborBins
	// sortF64 and sortI32 are sortAtoms' permutation scratch.
	sortF64 []float64
	sortI32 []int32
}

// newState builds the per-rank lattice for logical rank `rank` of `p`
// ranks. The jitter stream is keyed by logical rank so a recovered
// replacement reconstructs the identical initial state before restoring.
func newState(cfg *Config, rank, p int) *state {
	cells := cfg.ActualCells
	n := 4 * cells * cells * cells
	// Ghost capacity: two full boundary layers (one per face) plus slack.
	ghostCap := 2 * 4 * cells * cells * 2
	if p == 1 {
		ghostCap = 1
	}
	nbins := cells * cells * (cells + 2) // slab plus ghost margin
	st := &state{
		cfg:       cfg,
		n:         n,
		lx:        float64(cells) * latticeA,
		ly:        float64(cells) * latticeA,
		lzLocal:   float64(cells) * latticeA,
		simAtoms:  cfg.SimAtomsPerRank(p),
		simGhosts: cfg.SimBorderAtoms(p),
	}
	st.lzGlob = st.lzLocal * float64(p)
	st.zlo = st.lzLocal * float64(rank)
	st.views = buildViews(false, n, nbins, ghostCap, st.simAtoms, st.simGhosts)

	sv := st.views
	rng := sim.NewRNG(0xD1CE).Split(uint64(rank))
	i := 0
	for cx := 0; cx < cells; cx++ {
		for cy := 0; cy < cells; cy++ {
			for cz := 0; cz < cells; cz++ {
				for _, off := range fccOffsets {
					x := (float64(cx) + off[0]) * latticeA
					y := (float64(cy) + off[1]) * latticeA
					z := st.zlo + (float64(cz)+off[2])*latticeA
					// Tiny deterministic perturbation to break symmetry.
					sv.x.Set2(i, 0, x+0.01*(rng.Float64()-0.5))
					sv.x.Set2(i, 1, y+0.01*(rng.Float64()-0.5))
					sv.x.Set2(i, 2, z+0.01*(rng.Float64()-0.5))
					sv.v.Set2(i, 0, 0.1*(rng.Float64()-0.5))
					sv.v.Set2(i, 1, 0.1*(rng.Float64()-0.5))
					sv.v.Set2(i, 2, 0.1*(rng.Float64()-0.5))
					sv.atomID.Set(i, int32(i))
					i++
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		sv.mass.Set(i, 1)
	}
	sv.boxLo.Set(0, 0)
	sv.boxLo.Set(1, 0)
	sv.boxLo.Set(2, st.zlo)
	sv.boxHi.Set(0, st.lx)
	sv.boxHi.Set(1, st.ly)
	sv.boxHi.Set(2, st.zlo+st.lzLocal)
	sv.latticeParams.Set(0, latticeA)
	sv.dtParams.Set(0, cfg.Dt)
	sv.cutoffParams.Set(0, cfg.Cutoff)
	return st
}

// minImage applies the minimum-image convention along a periodic axis of
// length l; half is l/2, passed in so that a kernel computes it once.
func minImage(d, l, half float64) float64 {
	if d > half {
		d -= l
	} else if d < -half {
		d += l
	}
	return d
}

// atomPos returns the position of atom j in the neighbor-list numbering:
// owned atoms in [0, n) read x, ghosts from n on read ghostX (both three
// components per atom).
func atomPos(x, ghostX []float64, n, j int) (float64, float64, float64) {
	if j < n {
		return x[3*j], x[3*j+1], x[3*j+2]
	}
	g := 3 * (j - n)
	return ghostX[g], ghostX[g+1], ghostX[g+2]
}

// packBorders collects the atoms within one cutoff of each z face into the
// send buffer and returns the per-face counts (down-face first).
func (st *state) packBorders() (downCount, upCount int) {
	sv := st.views
	rc := st.cfg.Cutoff + 0.3 // cutoff + skin
	idx := 0
	put := func(i int) {
		sv.borderIdx.Set(idx, int32(i))
		sv.sendBuf.Set(idx*3+0, sv.x.At2(i, 0))
		sv.sendBuf.Set(idx*3+1, sv.x.At2(i, 1))
		sv.sendBuf.Set(idx*3+2, sv.x.At2(i, 2))
		idx++
	}
	for i := 0; i < st.n; i++ {
		if sv.x.At2(i, 2)-st.zlo < rc {
			put(i)
		}
	}
	downCount = idx
	for i := 0; i < st.n; i++ {
		if st.zlo+st.lzLocal-sv.x.At2(i, 2) < rc {
			put(i)
		}
	}
	upCount = idx - downCount
	return downCount, upCount
}

// ljForce computes Lennard-Jones forces on owned atoms from the current
// neighbor lists (which index owned atoms in [0,n) and ghosts in [n,
// n+nGhost)), and returns the potential energy. Interactions are truncated
// and shifted at the cutoff. Forces on owned atoms only: each pair is
// visited from both sides (full neighbor lists), matching MiniMD's default
// half=false mode and keeping results independent of rank count.
func (st *state) ljForce() float64 {
	sv := st.views
	rc2 := st.cfg.Cutoff * st.cfg.Cutoff
	// Energy shift so U(rc) = 0.
	sr2c := 1.0 / rc2
	sr6c := sr2c * sr2c * sr2c
	eShift := 4 * (sr6c*sr6c - sr6c)

	x, ghostX, f := sv.x.Data(), sv.ghostX.Data(), sv.f.Data()
	neighList, neighNum := sv.neighList.Data(), sv.neighNum.Data()
	hx, hy, hz := st.lx/2, st.ly/2, st.lzGlob/2

	var pe float64
	for i := 0; i < st.n; i++ {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		var fx, fy, fz, pei float64
		nn := int(neighNum[i])
		list := neighList[i*maxNeighbors:]
		for k := 0; k < nn; k++ {
			xj, yj, zj := atomPos(x, ghostX, st.n, int(list[k]))
			dx := minImage(xi-xj, st.lx, hx)
			dy := minImage(yi-yj, st.ly, hy)
			dz := zi - zj
			if st.nGhost == 0 {
				dz = minImage(dz, st.lzGlob, hz)
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

// neighborBins is the packed z-binning of the last neighbor rebuild, kept
// on the state and reused by the next one. Bin b's atoms occupy
// [start[b], start[b+1]) of idx and of the coordinate arrays bx, by, bz,
// in index order, so the scan of bins b-1, b, b+1 is one contiguous range
// with no owned/ghost branch.
type neighborBins struct {
	bin        []int32 // z-bin of each atom in the neighbor numbering
	start      []int32 // bin b's first packed slot; start[nbins] = atom count
	next       []int32 // fill cursor per bin
	idx        []int32 // packed atom indices
	bx, by, bz []float64
}

// buildNeighbors rebuilds the neighbor lists by binning owned and ghost
// atoms along z and scanning adjacent bins. Bin side >= cutoff+skin.
// Candidates are tested on z alone first: dz*dz >= rc2 rules a pair out
// exactly, since the rounded sum dx*dx+dy*dy+dz*dz is never below its
// non-negative term dz*dz.
func (st *state) buildNeighbors() {
	sv := st.views
	rc := st.cfg.Cutoff + 0.3
	rc2 := rc * rc
	total := st.n + st.nGhost

	x, ghostX := sv.x.Data(), sv.ghostX.Data()
	neighList, neighNum := sv.neighList.Data(), sv.neighNum.Data()
	lx, ly := st.lx, st.ly
	hx, hy := lx/2, ly/2

	if st.nGhost == 0 {
		// Single rank: the box is fully periodic (minimum image in z as
		// well), which slab bins cannot express; with the small real
		// lattice an all-pairs scan is cheap and exact.
		lz := st.lzGlob
		hz := lz / 2
		for i := 0; i < st.n; i++ {
			xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
			list := neighList[i*maxNeighbors : (i+1)*maxNeighbors]
			cnt := 0
			// Without ghosts every atom is owned: j indexes x directly.
			for j := 0; j < total; j++ {
				dz := minImage(zi-x[3*j+2], lz, hz)
				if dz*dz >= rc2 || j == i {
					continue
				}
				dx := minImage(xi-x[3*j], lx, hx)
				dy := minImage(yi-x[3*j+1], ly, hy)
				if dx*dx+dy*dy+dz*dz < rc2 && cnt < maxNeighbors {
					list[cnt] = int32(j)
					cnt++
				}
			}
			neighNum[i] = int32(cnt)
		}
		return
	}

	// Bin along z only (slab geometry): simple, deterministic, and O(N *
	// atoms-in-nearby-slabs) with the small real lattices in use. The bin
	// contents also go to the binCount/binAtoms views so they are part of
	// the checkpointed state, like MiniMD's own bin arrays: each bin keeps
	// its first perBin atoms there, and the atoms beyond that capacity
	// are scanned from the packed bins all the same, so no pair is lost.
	zmin := st.zlo - rc
	binH := rc
	nbins := int((st.lzLocal+2*rc)/binH) + 2
	if nbins > st.views.binCount.Len() {
		nbins = st.views.binCount.Len()
	}
	perBin := sv.binAtoms.Len() / sv.binCount.Len()
	nb := &st.nbins
	nb.bin = slices.Grow(nb.bin[:0], total)[:total]
	nb.start = slices.Grow(nb.start[:0], nbins+1)[:nbins+1]
	clear(nb.start)
	for j := 0; j < total; j++ {
		_, _, z := atomPos(x, ghostX, st.n, j)
		b := int((z - zmin) / binH)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		nb.bin[j] = int32(b)
		nb.start[b+1]++
	}
	for b := 1; b <= nbins; b++ {
		nb.start[b] += nb.start[b-1]
	}
	nb.next = append(nb.next[:0], nb.start[:nbins]...)
	nb.idx = slices.Grow(nb.idx[:0], total)[:total]
	nb.bx = slices.Grow(nb.bx[:0], total)[:total]
	nb.by = slices.Grow(nb.by[:0], total)[:total]
	nb.bz = slices.Grow(nb.bz[:0], total)[:total]
	for j := 0; j < total; j++ {
		b := nb.bin[j]
		k := nb.next[b]
		nb.next[b]++
		nb.idx[k] = int32(j)
		nb.bx[k], nb.by[k], nb.bz[k] = atomPos(x, ghostX, st.n, j)
	}
	binCount, binAtoms := sv.binCount.Data(), sv.binAtoms.Data()
	for b := 0; b < nbins; b++ {
		c := min(int(nb.start[b+1]-nb.start[b]), perBin)
		binCount[b] = int32(c)
		copy(binAtoms[b*perBin:b*perBin+c], nb.idx[nb.start[b]:])
	}

	idx, bx, by, bz := nb.idx, nb.bx, nb.by, nb.bz
	for i := 0; i < st.n; i++ {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		list := neighList[i*maxNeighbors : (i+1)*maxNeighbors]
		cnt := 0
		b := int(nb.bin[i])
		lo, hi := nb.start[max(b-1, 0)], nb.start[min(b+2, nbins)]
		for k := lo; k < hi; k++ {
			dz := zi - bz[k]
			if dz*dz >= rc2 || int(idx[k]) == i {
				continue
			}
			dx := minImage(xi-bx[k], lx, hx)
			dy := minImage(yi-by[k], ly, hy)
			if dx*dx+dy*dy+dz*dz < rc2 && cnt < maxNeighbors {
				list[cnt] = idx[k]
				cnt++
			}
		}
		neighNum[i] = int32(cnt)
	}
}

// sortAtoms reorders the owned atoms by z position (MiniMD's spatial sort
// for cache locality), permuting every per-atom view consistently. The
// sort is stable and deterministic; atom IDs track original identities.
// Neighbor lists and border lists are invalidated and must be rebuilt —
// the caller runs it only on neighbor-rebuild steps, before setupBorders.
func (st *state) sortAtoms() {
	sv := st.views
	n := st.n
	// Keys: z quantized to bins; stable order within a bin preserves
	// determinism.
	for i := 0; i < n; i++ {
		sv.sortKeys.Set(i, int32(sv.x.At2(i, 2)*1024))
		sv.sortPerm.Set(i, int32(i))
	}
	// Stable insertion sort on (key, original index): n is small and the
	// lattice is nearly sorted already.
	perm := sv.sortPerm.Data()
	keys := sv.sortKeys.Data()
	for i := 1; i < n; i++ {
		p, k := perm[i], keys[int(perm[i])]
		j := i - 1
		for j >= 0 && keys[int(perm[j])] > k {
			perm[j+1] = perm[j]
			j--
		}
		perm[j+1] = p
	}
	// Apply the permutation to every per-atom view, through scratch kept
	// on the state.
	st.sortF64 = slices.Grow(st.sortF64[:0], 3*n)[:3*n]
	st.sortI32 = slices.Grow(st.sortI32[:0], n)[:n]
	applyF64 := func(v []float64, comps int) {
		tmp := st.sortF64[:n*comps]
		for newI := 0; newI < n; newI++ {
			old := int(perm[newI])
			copy(tmp[newI*comps:(newI+1)*comps], v[old*comps:(old+1)*comps])
		}
		copy(v, tmp)
	}
	applyI32 := func(v []int32) {
		tmp := st.sortI32
		for newI := 0; newI < n; newI++ {
			tmp[newI] = v[int(perm[newI])]
		}
		copy(v, tmp)
	}
	applyF64(sv.x.Data(), 3)
	applyF64(sv.v.Data(), 3)
	applyF64(sv.f.Data(), 3)
	applyF64(sv.xold.Data(), 3)
	applyI32(sv.atomType.Data())
	applyI32(sv.atomID.Data())
}

// kineticEnergy returns the total kinetic energy of owned atoms.
func (st *state) kineticEnergy() float64 {
	sv := st.views
	var ke float64
	for i := 0; i < st.n; i++ {
		vx, vy, vz := sv.v.At2(i, 0), sv.v.At2(i, 1), sv.v.At2(i, 2)
		ke += 0.5 * (vx*vx + vy*vy + vz*vz)
	}
	return ke
}

// wrapXY applies periodic wrapping in the rank-local x,y directions. A
// coordinate that drifted less than one box edge out of [0, l) is shifted
// by one edge, which gives math.Mod's result bit for bit: v-l is exact for
// v in [l, 2l) (Sterbenz), and Mod returns v itself for v in (-l, 0).
// Anything else (v <= -l, v >= 2l, NaN, Inf) still goes through Mod.
func (st *state) wrapXY() {
	x := st.views.x.Data()
	for i := 0; i < st.n; i++ {
		for d, l := range [2]float64{st.lx, st.ly} {
			v := x[3*i+d]
			switch {
			case v >= 0 && v < l: // inside the box already
			case v >= l && v < 2*l:
				v -= l
			case v < 0 && v > -l:
				v += l
			default:
				v = math.Mod(v, l)
				if v < 0 {
					v += l
				}
			}
			x[3*i+d] = v
		}
	}
}

// checksum returns a deterministic digest of positions and velocities.
func (st *state) checksum() float64 {
	sv := st.views
	var sum float64
	for i := 0; i < st.n; i++ {
		w := float64(i%97 + 1)
		sum += w * (sv.x.At2(i, 0) + 2*sv.x.At2(i, 1) + 3*sv.x.At2(i, 2))
		sum += 0.5 * w * (sv.v.At2(i, 0) + sv.v.At2(i, 1) + sv.v.At2(i, 2))
	}
	return sum
}
