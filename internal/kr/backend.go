package kr

import (
	"errors"
	"fmt"

	"repro/internal/fenix"
	"repro/internal/mpi"
	"repro/internal/veloc"
)

// blobRegion adapts the context's serialized view blob as a VeloC region.
// Unlike veloc.SliceRegion it accepts restores of any length: a recovered
// process restores before it has ever produced a blob of its own.
type blobRegion struct {
	b   *[]byte
	sim *int
}

func (r blobRegion) Bytes() []byte { return *r.b }

// Restore keeps data without copying it: VeloC hands over a slice of its
// stored frame, which is read-only, and the backend only passes it on to
// be decoded into the views.
func (r blobRegion) Restore(data []byte) error {
	*r.b = data
	return nil
}

func (r blobRegion) SimBytes() int {
	if *r.sim > 0 {
		return *r.sim
	}
	return len(*r.b)
}

// VeloCBackend connects a Context to a veloc.Client. In either VeloC mode
// it selects versions with the client's globally-best-version reduction
// over the communicator currently installed by the Context — in Single
// mode (the paper's modification) the repaired one.
type VeloCBackend struct {
	client *veloc.Client
	name   string
	blob   []byte // the protected region's bytes, set only during a call
	sim    int
}

// NewVeloCBackend creates the backend. name distinguishes checkpoint sets
// (VeloC checkpoint names).
func NewVeloCBackend(client *veloc.Client, name string) *VeloCBackend {
	b := &VeloCBackend{client: client, name: name}
	client.Protect(0, blobRegion{&b.blob, &b.sim})
	return b
}

// Checkpoint persists blob as the given version via VeloC. A version
// discarded by VeloC's integrity verification surfaces as ErrRejected.
func (b *VeloCBackend) Checkpoint(version int, blob []byte, simBytes int) error {
	b.blob, b.sim = blob, simBytes
	err := b.client.Checkpoint(b.name, version)
	// VeloC has copied the blob into its own frame: release it rather than
	// keep a view-sized buffer alive until the next checkpoint.
	b.blob = nil
	if err != nil {
		if errors.Is(err, veloc.ErrRejected) {
			return fmt.Errorf("%w: version %d", ErrRejected, version)
		}
		return err
	}
	return nil
}

// Restore retrieves the blob for version via VeloC.
func (b *VeloCBackend) Restore(version int) ([]byte, error) {
	err := b.client.Restart(b.name, version)
	blob := b.blob
	b.blob = nil // a slice of the stored frame; only the caller decodes it
	if err != nil {
		if errors.Is(err, veloc.ErrNoCheckpoint) {
			return nil, fmt.Errorf("%w: version %d", ErrNoCheckpoint, version)
		}
		return nil, err
	}
	return blob, nil
}

// LatestVersion returns the newest version restorable at every rank of
// comm, the communicator the Context has just installed.
func (b *VeloCBackend) LatestVersion(comm *mpi.Comm) (int, error) {
	v, err := b.client.BestCommonVersion(b.name, comm)
	if errors.Is(err, veloc.ErrNoCheckpoint) {
		return 0, ErrNoCheckpoint
	}
	return v, err
}

// SetComm updates the client's communicator after a repair.
func (b *VeloCBackend) SetComm(comm *mpi.Comm) { b.client.SetComm(comm) }

// SetRank updates the client's logical rank identity.
func (b *VeloCBackend) SetRank(rank int) { b.client.SetRank(rank) }

// IMRBackend connects a Context to Fenix's in-memory redundancy store.
// Restore is collective: all ranks of the resilient communicator must call
// it together (the buddy protocol requires the partner's participation).
type IMRBackend struct {
	imr *fenix.IMR
}

// NewIMRBackend wraps a fenix.IMR handle.
func NewIMRBackend(imr *fenix.IMR) *IMRBackend { return &IMRBackend{imr: imr} }

// Checkpoint stores blob in memory locally and at the buddy rank.
func (b *IMRBackend) Checkpoint(version int, blob []byte, simBytes int) error {
	return b.imr.CheckpointSized(version, blob, simBytes)
}

// Restore retrieves blob for version (collective).
func (b *IMRBackend) Restore(version int) ([]byte, error) {
	blob, err := b.imr.Restore(version)
	if errors.Is(err, fenix.ErrIMRNoCheckpoint) {
		return nil, ErrNoCheckpoint
	}
	return blob, err
}

// LatestVersion returns the newest version restorable at every rank
// (collective agreement).
func (b *IMRBackend) LatestVersion(comm *mpi.Comm) (int, error) {
	v, err := b.imr.LatestCommon()
	if errors.Is(err, fenix.ErrIMRNoCheckpoint) {
		return 0, ErrNoCheckpoint
	}
	return v, err
}

// SetComm is a no-op: the IMR handle always reads the current resilient
// communicator from its Fenix context.
func (b *IMRBackend) SetComm(comm *mpi.Comm) {}

// SetRank is a no-op for the same reason.
func (b *IMRBackend) SetRank(rank int) {}
