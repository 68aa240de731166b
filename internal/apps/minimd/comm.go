package minimd

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Halo bookkeeping lives in the haloSizes view so it is checkpointed and
// restored with the rest of the state: a recovered rank resumes with
// exactly the border lists that were active at the checkpoint.
const (
	hsDownSend = iota // atoms we send to the down neighbour
	hsUpSend          // atoms we send to the up neighbour
	// ghost counts received are symmetric: ghosts from down precede
	// ghosts from up in ghostX.
	hsDownRecv
	hsUpRecv
)

const (
	tagCounts = 21
	tagDown   = 22
	tagUp     = 23
)

// setupBorders re-selects the border atoms on a neighbor-rebuild step and
// exchanges counts and positions with both z-neighbours. Runs inside the
// Communicator profiling section.
func (st *state) setupBorders(s *core.Session) error {
	if s.Size() == 1 {
		st.nGhost = 0
		return nil
	}
	sv := st.views
	down, up := st.packBorders()
	if (down+up)*3 > sv.sendBuf.Len() {
		return fmt.Errorf("minimd: border overflow: %d atoms > capacity %d", down+up, sv.sendBuf.Len()/3)
	}
	sv.haloSizes.Set(hsDownSend, int32(down))
	sv.haloSizes.Set(hsUpSend, int32(up))

	comm, p := s.Comm(), s.Proc()
	me, n := s.Rank(), s.Size()
	dn, upN := (me-1+n)%n, (me+1)%n

	// Exchange counts.
	cnts, err := comm.Sendrecv(p, dn, tagCounts, []byte{byte(down), byte(down >> 8)}, upN, tagCounts)
	if err != nil {
		return err
	}
	fromUp := int(cnts[0]) | int(cnts[1])<<8
	cnts, err = comm.Sendrecv(p, upN, tagCounts, []byte{byte(up), byte(up >> 8)}, dn, tagCounts)
	if err != nil {
		return err
	}
	fromDown := int(cnts[0]) | int(cnts[1])<<8
	if fromDown+fromUp > sv.ghostX.Len()/3 {
		return fmt.Errorf("minimd: ghost overflow: %d > capacity %d", fromDown+fromUp, sv.ghostX.Len()/3)
	}
	sv.haloSizes.Set(hsDownRecv, int32(fromDown))
	sv.haloSizes.Set(hsUpRecv, int32(fromUp))
	st.nGhost = fromDown + fromUp

	return st.communicate(s)
}

// communicate re-sends the positions of the established border atoms and
// refreshes ghostX — MiniMD's per-step comm.communicate. Runs inside the
// Communicator profiling section.
func (st *state) communicate(s *core.Session) error {
	if s.Size() == 1 {
		return nil
	}
	sv := st.views
	comm, p := s.Comm(), s.Proc()
	me, n := s.Rank(), s.Size()
	dn, upN := (me-1+n)%n, (me+1)%n
	down := int(sv.haloSizes.At(hsDownSend))
	up := int(sv.haloSizes.At(hsUpSend))
	fromDown := int(sv.haloSizes.At(hsDownRecv))
	fromUp := int(sv.haloSizes.At(hsUpRecv))
	st.nGhost = fromDown + fromUp

	// Repack current positions of the established border lists.
	for k := 0; k < down+up; k++ {
		i := int(sv.borderIdx.At(k))
		sv.sendBuf.Set(k*3+0, sv.x.At2(i, 0))
		sv.sendBuf.Set(k*3+1, sv.x.At2(i, 1))
		sv.sendBuf.Set(k*3+2, sv.x.At2(i, 2))
	}
	simHalf := st.simGhosts * 3 * 8 / 2
	if simHalf < 8 {
		simHalf = 8
	}

	// Both directions exchange with nonblocking operations, as MiniMD's
	// comm.communicate does: post receives, post sends, wait for all.
	// Down-borders travel to the down neighbour (we receive our up
	// neighbour's — the atoms just above our slab); up-borders travel up.
	rUp, err := comm.Irecv(p, upN, tagDown)
	if err != nil {
		return err
	}
	rDown, err := comm.Irecv(p, dn, tagUp)
	if err != nil {
		return err
	}
	sDown, err := comm.IsendSized(p, dn, tagDown, mpi.EncodeF64(sv.sendBuf.Data()[:down*3]), simHalf)
	if err != nil {
		return err
	}
	sUp, err := comm.IsendSized(p, upN, tagUp, mpi.EncodeF64(sv.sendBuf.Data()[down*3:(down+up)*3]), simHalf)
	if err != nil {
		return err
	}
	payloads, err := mpi.WaitAll([]*mpi.Request{rUp, rDown, sDown, sUp})
	if err != nil {
		return err
	}
	st.ghostUp = slices.Grow(st.ghostUp[:0], fromUp*3)[:fromUp*3]
	st.ghostDown = slices.Grow(st.ghostDown[:0], fromDown*3)[:fromDown*3]
	fromUpPos, fromDownPos := st.ghostUp, st.ghostDown
	if err := errors.Join(mpi.DecodeF64Into(fromUpPos, payloads[0]), mpi.DecodeF64Into(fromDownPos, payloads[1])); err != nil {
		return fmt.Errorf("minimd: ghost payload mismatch: %w", err)
	}

	// Store ghosts: from-down first, then from-up, with periodic z shifts
	// at the global box boundaries.
	for g := 0; g < fromDown; g++ {
		z := fromDownPos[g*3+2]
		if me == 0 {
			z -= st.lzGlob
		}
		sv.ghostX.Set2(g, 0, fromDownPos[g*3+0])
		sv.ghostX.Set2(g, 1, fromDownPos[g*3+1])
		sv.ghostX.Set2(g, 2, z)
	}
	for g := 0; g < fromUp; g++ {
		z := fromUpPos[g*3+2]
		if me == n-1 {
			z += st.lzGlob
		}
		sv.ghostX.Set2(fromDown+g, 0, fromUpPos[g*3+0])
		sv.ghostX.Set2(fromDown+g, 1, fromUpPos[g*3+1])
		sv.ghostX.Set2(fromDown+g, 2, z)
	}

	// Pack/unpack compute cost at simulated scale.
	s.Proc().Compute(10 * float64(st.simGhosts))
	return nil
}
