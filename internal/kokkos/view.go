// Package kokkos is a minimal Kokkos-like programming model: labeled,
// shaped Views over flat allocations, plus deterministic host-parallel
// dispatch. It provides exactly the surface Kokkos Resilience needs —
// view identity for duplicate-capture detection, labels for aliasing, and
// byte serialization for checkpointing.
package kokkos

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// allocation is the identity token shared by every View header referencing
// the same underlying data, mirroring Kokkos's shared allocation records.
// Kokkos Resilience uses this identity to checkpoint each allocation once
// even when multiple View copies are captured ("skipped" views in the
// paper's Figure 7).
type allocation struct{ _ byte }

// View is the kind-erased interface over typed views.
type View interface {
	// Label returns the user-facing view name.
	Label() string
	// Shape returns the view's dimensions.
	Shape() []int
	// Len returns the flat element count.
	Len() int
	// ElemSize returns the element size in bytes.
	ElemSize() int
	// SizeBytes returns Len() * ElemSize().
	SizeBytes() int
	// SimBytes returns the view's size in the simulation's cost model. It
	// equals SizeBytes unless overridden: experiments at the paper's data
	// scales (up to gigabytes per rank) back a large simulated view with a
	// small real allocation and set SimBytes to the simulated footprint,
	// so checkpoint, network, and file system costs are charged at full
	// scale while the actual arithmetic runs on a sample.
	SimBytes() int
	// Dry reports whether this view carries metadata only (no storage);
	// used for the Figure 7 census at sizes too large to allocate.
	Dry() bool
	// Serialize returns the view contents as bytes. Panics on dry views.
	Serialize() []byte
	// AppendBytes appends the Serialize encoding to dst and returns the
	// extended slice, growing dst at most once. Panics on dry views.
	AppendBytes(dst []byte) []byte
	// Deserialize overwrites the view contents from bytes.
	Deserialize(b []byte) error
	// alloc returns the shared allocation identity.
	alloc() *allocation
}

// SameAllocation reports whether two views share underlying storage, i.e.
// one is a duplicate capture of the other.
func SameAllocation(a, b View) bool { return a.alloc() == b.alloc() }

func flatLen(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("kokkos: negative dimension %d", d))
		}
		n *= d
	}
	return n
}

type viewHeader struct {
	label    string
	shape    []int
	dry      bool
	id       *allocation
	simBytes int // 0 = same as actual
}

func (h *viewHeader) Label() string      { return h.label }
func (h *viewHeader) Shape() []int       { return append([]int(nil), h.shape...) }
func (h *viewHeader) Len() int           { return flatLen(h.shape) }
func (h *viewHeader) Dry() bool          { return h.dry }
func (h *viewHeader) alloc() *allocation { return h.id }

func (h *viewHeader) mustWet(op string) {
	if h.dry {
		panic(fmt.Sprintf("kokkos: %s on dry view %q", op, h.label))
	}
}

// F64View is a view of float64 elements.
type F64View struct {
	viewHeader
	data []float64
}

// NewF64 allocates a zeroed float64 view with the given label and shape.
func NewF64(label string, shape ...int) *F64View {
	v := &F64View{viewHeader: viewHeader{label: label, shape: append([]int(nil), shape...), id: &allocation{}}}
	v.data = make([]float64, v.Len())
	return v
}

// NewF64Dry creates a metadata-only float64 view (no storage).
func NewF64Dry(label string, shape ...int) *F64View {
	return &F64View{viewHeader: viewHeader{label: label, shape: append([]int(nil), shape...), dry: true, id: &allocation{}}}
}

// Ref returns a new View header sharing this view's storage, modeling the
// shallow copies the C++ compiler creates when a lambda captures a view
// that is also reachable through another object.
func (v *F64View) Ref(label string) *F64View {
	cp := *v
	cp.viewHeader.label = label
	return &cp
}

// Data returns the underlying storage. Panics on dry views.
func (v *F64View) Data() []float64 {
	v.mustWet("Data")
	return v.data
}

// At returns element i of the flattened view.
func (v *F64View) At(i int) float64 { return v.data[i] }

// Set assigns element i of the flattened view.
func (v *F64View) Set(i int, x float64) { v.data[i] = x }

// At2 indexes a 2-D view.
func (v *F64View) At2(i, j int) float64 { return v.data[i*v.shape[1]+j] }

// Set2 assigns into a 2-D view.
func (v *F64View) Set2(i, j int, x float64) { v.data[i*v.shape[1]+j] = x }

// ElemSize returns 8.
func (v *F64View) ElemSize() int { return 8 }

// SizeBytes returns the storage footprint in bytes.
func (v *F64View) SizeBytes() int { return 8 * v.Len() }

// SimBytes returns the cost-model footprint (SizeBytes unless overridden).
func (v *F64View) SimBytes() int {
	if v.simBytes > 0 {
		return v.simBytes
	}
	return v.SizeBytes()
}

// SetSimBytes overrides the cost-model footprint (see View.SimBytes).
func (v *F64View) SetSimBytes(n int) { v.simBytes = n }

// Serialize returns the contents as little-endian bytes.
func (v *F64View) Serialize() []byte {
	v.mustWet("Serialize")
	return v.AppendBytes(make([]byte, 0, v.SizeBytes()))
}

// AppendBytes appends the contents to dst as little-endian bytes.
func (v *F64View) AppendBytes(dst []byte) []byte {
	v.mustWet("AppendBytes")
	n := len(dst)
	dst = slices.Grow(dst, 8*len(v.data))[:n+8*len(v.data)]
	out := dst[n:]
	for i, x := range v.data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return dst
}

// Deserialize overwrites the contents from Serialize output.
func (v *F64View) Deserialize(b []byte) error {
	v.mustWet("Deserialize")
	if len(b) != 8*len(v.data) {
		return fmt.Errorf("kokkos: view %q expects %d bytes, got %d", v.label, 8*len(v.data), len(b))
	}
	for i := range v.data {
		v.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// I32View is a view of int32 elements (neighbor lists, bin indices).
type I32View struct {
	viewHeader
	data []int32
}

// NewI32 allocates a zeroed int32 view.
func NewI32(label string, shape ...int) *I32View {
	v := &I32View{viewHeader: viewHeader{label: label, shape: append([]int(nil), shape...), id: &allocation{}}}
	v.data = make([]int32, v.Len())
	return v
}

// NewI32Dry creates a metadata-only int32 view.
func NewI32Dry(label string, shape ...int) *I32View {
	return &I32View{viewHeader: viewHeader{label: label, shape: append([]int(nil), shape...), dry: true, id: &allocation{}}}
}

// Ref returns a shallow copy sharing storage.
func (v *I32View) Ref(label string) *I32View {
	cp := *v
	cp.viewHeader.label = label
	return &cp
}

// Data returns the underlying storage. Panics on dry views.
func (v *I32View) Data() []int32 {
	v.mustWet("Data")
	return v.data
}

// At returns element i.
func (v *I32View) At(i int) int32 { return v.data[i] }

// Set assigns element i.
func (v *I32View) Set(i int, x int32) { v.data[i] = x }

// ElemSize returns 4.
func (v *I32View) ElemSize() int { return 4 }

// SizeBytes returns the storage footprint in bytes.
func (v *I32View) SizeBytes() int { return 4 * v.Len() }

// SimBytes returns the cost-model footprint (SizeBytes unless overridden).
func (v *I32View) SimBytes() int {
	if v.simBytes > 0 {
		return v.simBytes
	}
	return v.SizeBytes()
}

// SetSimBytes overrides the cost-model footprint (see View.SimBytes).
func (v *I32View) SetSimBytes(n int) { v.simBytes = n }

// Serialize returns the contents as little-endian bytes.
func (v *I32View) Serialize() []byte {
	v.mustWet("Serialize")
	return v.AppendBytes(make([]byte, 0, v.SizeBytes()))
}

// AppendBytes appends the contents to dst as little-endian bytes.
func (v *I32View) AppendBytes(dst []byte) []byte {
	v.mustWet("AppendBytes")
	n := len(dst)
	dst = slices.Grow(dst, 4*len(v.data))[:n+4*len(v.data)]
	out := dst[n:]
	for i, x := range v.data {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return dst
}

// Deserialize overwrites the contents from Serialize output.
func (v *I32View) Deserialize(b []byte) error {
	v.mustWet("Deserialize")
	if len(b) != 4*len(v.data) {
		return fmt.Errorf("kokkos: view %q expects %d bytes, got %d", v.label, 4*len(v.data), len(b))
	}
	for i := range v.data {
		v.data[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}

// DeepCopyF64 copies src's contents into dst (Kokkos deep_copy). The views
// must have equal length.
func DeepCopyF64(dst, src *F64View) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("kokkos: deep_copy length mismatch %d vs %d", dst.Len(), src.Len()))
	}
	copy(dst.Data(), src.Data())
}

// DeepCopyI32 copies src's contents into dst.
func DeepCopyI32(dst, src *I32View) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("kokkos: deep_copy length mismatch %d vs %d", dst.Len(), src.Len()))
	}
	copy(dst.Data(), src.Data())
}
