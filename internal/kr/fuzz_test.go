package kr

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kokkos"
	"repro/internal/mpi"
)

// FuzzDeserializeViews hardens the checkpoint blob parser: arbitrary
// bytes must never panic, only error.
func FuzzDeserializeViews(f *testing.F) {
	a := kokkos.NewF64("a", 4)
	b := kokkos.NewI32("b", 3)
	f.Add(serializeViews(nil, []kokkos.View{a, b}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		x := kokkos.NewF64("a", 4)
		y := kokkos.NewI32("b", 3)
		_ = deserializeViews(blob, []kokkos.View{x, y}) // must not panic
	})
}

// FuzzFlippedBlobRejected is the codec's SDC-detection property: any
// single bit flip in an encoded blob — header, label, payload, or the CRC
// field itself — must fail the codec checksum and must be rejected by
// deserializeViews before a single view element is overwritten.
func FuzzFlippedBlobRejected(f *testing.F) {
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(3), uint8(7)) // top bit of the stored CRC
	f.Add(uint16(40), uint8(4))
	f.Fuzz(func(t *testing.T, site uint16, bit uint8) {
		a := kokkos.NewF64("a", 4)
		b := kokkos.NewI32("b", 3)
		for i := 0; i < 4; i++ {
			a.Set(i, float64(i)*1.5)
		}
		for i := 0; i < 3; i++ {
			b.Set(i, int32(i+1))
		}
		blob := serializeViews(nil, []kokkos.View{a, b})
		blob[int(site)%len(blob)] ^= 1 << (bit % 8)

		if blobChecksumOK(blob) {
			t.Fatalf("flip at byte %d bit %d passed the codec checksum", int(site)%len(blob), bit%8)
		}
		x := kokkos.NewF64("a", 4)
		y := kokkos.NewI32("b", 3)
		x.Set(2, 99)
		y.Set(1, -7)
		if err := deserializeViews(blob, []kokkos.View{x, y}); !errors.Is(err, ErrCorruptBlob) {
			t.Fatalf("flipped blob not rejected: err = %v", err)
		}
		// Rejection must happen before any write-back.
		if x.At(2) != 99 || y.At(1) != -7 {
			t.Fatalf("rejected blob mutated views: x[2]=%v y[1]=%v", x.At(2), y.At(1))
		}
	})
}

// rejectingBackend is an in-memory Backend whose verification discards
// selected versions with ErrRejected — the kr-facing behaviour of VeloC
// when a scratch blob fails integrity verification.
type rejectingBackend struct {
	blobs  map[int][]byte
	reject map[int]bool
}

func newRejectingBackend(reject ...int) *rejectingBackend {
	b := &rejectingBackend{blobs: make(map[int][]byte), reject: make(map[int]bool)}
	for _, v := range reject {
		b.reject[v] = true
	}
	return b
}

func (b *rejectingBackend) Checkpoint(version int, blob []byte, simBytes int) error {
	if b.reject[version] {
		return fmt.Errorf("%w: version %d", ErrRejected, version)
	}
	b.blobs[version] = append([]byte(nil), blob...)
	return nil
}

func (b *rejectingBackend) Restore(version int) ([]byte, error) {
	blob, ok := b.blobs[version]
	if !ok {
		return nil, ErrNoCheckpoint
	}
	return blob, nil
}

func (b *rejectingBackend) LatestVersion(comm *mpi.Comm) (int, error) {
	best := -1
	for v := range b.blobs {
		if v > best {
			best = v
		}
	}
	if best < 0 {
		return 0, ErrNoCheckpoint
	}
	return best, nil
}

func (b *rejectingBackend) SetComm(comm *mpi.Comm) {}
func (b *rejectingBackend) SetRank(rank int)       {}

// TestRejectedCheckpointKeepsLastGood is the regression test for the
// rejection path: a version the data backend discards must never replace
// the previous good version — neither in the context's latest-version
// cache nor in what a later recovery restores.
func TestRejectedCheckpointKeepsLastGood(t *testing.T) {
	backend := newRejectingBackend(3)
	runRanks(t, 1, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		ctx, err := MakeContext(p, comm, backend, Config{Interval: 2, RestoreSurvivors: true})
		if err != nil {
			return err
		}
		x := kokkos.NewF64("x", 4)
		for iter := 0; iter < 4; iter++ {
			err := ctx.Checkpoint("loop", iter, []kokkos.View{x}, func() error {
				for i := 0; i < x.Len(); i++ {
					x.Set(i, float64(iter))
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("iter %d: %v", iter, err)
			}
		}
		// Versions 1 and 3 match the interval; 3 was rejected, so the last
		// good version must still be 1.
		if got := ctx.LatestVersion(); got != 1 {
			return fmt.Errorf("latest = %d, want 1", got)
		}
		if _, ok := backend.blobs[3]; ok {
			return fmt.Errorf("rejected version 3 was stored anyway")
		}
		// A fresh context (relaunch) must arm recovery on version 1 and
		// restore the iter-1 data, not the rejected iter-3 data.
		ctx2, err := MakeContext(p, comm, backend, Config{Interval: 2, RestoreSurvivors: true})
		if err != nil {
			return err
		}
		if !ctx2.RecoveryPending() || ctx2.LatestVersion() != 1 {
			return fmt.Errorf("recovery armed=%v latest=%d, want true/1", ctx2.RecoveryPending(), ctx2.LatestVersion())
		}
		y := kokkos.NewF64("x", 4)
		executed := false
		if err := ctx2.Checkpoint("loop", 1, []kokkos.View{y}, func() error {
			executed = true
			return nil
		}); err != nil {
			return err
		}
		if executed {
			return fmt.Errorf("recovery iteration executed the body")
		}
		if y.At(0) != 1.0 {
			return fmt.Errorf("restored x[0] = %v, want 1 (the last good version)", y.At(0))
		}
		return nil
	})
}
