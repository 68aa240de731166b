package kokkos

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestF64ViewBasics(t *testing.T) {
	v := NewF64("temps", 3, 4)
	if v.Label() != "temps" {
		t.Fatalf("label %q", v.Label())
	}
	if v.Len() != 12 || v.SizeBytes() != 96 || v.ElemSize() != 8 {
		t.Fatalf("len=%d bytes=%d", v.Len(), v.SizeBytes())
	}
	if !reflect.DeepEqual(v.Shape(), []int{3, 4}) {
		t.Fatalf("shape %v", v.Shape())
	}
	v.Set2(1, 2, 7.5)
	if v.At2(1, 2) != 7.5 || v.At(1*4+2) != 7.5 {
		t.Fatal("2-D indexing broken")
	}
	v.Set(0, -1)
	if v.Data()[0] != -1 {
		t.Fatal("Set/Data disagree")
	}
}

func TestI32ViewBasics(t *testing.T) {
	v := NewI32("neigh", 5)
	if v.ElemSize() != 4 || v.SizeBytes() != 20 {
		t.Fatalf("bytes=%d", v.SizeBytes())
	}
	v.Set(3, -9)
	if v.At(3) != -9 {
		t.Fatal("Set/At disagree")
	}
}

func TestShapeIsCopied(t *testing.T) {
	v := NewF64("x", 2, 2)
	s := v.Shape()
	s[0] = 99
	if v.Shape()[0] != 2 {
		t.Fatal("Shape() aliases internal slice")
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dim did not panic")
		}
	}()
	NewF64("bad", -1)
}

func TestRefSharesAllocation(t *testing.T) {
	v := NewF64("x", 4)
	r := v.Ref("x_captured")
	if !SameAllocation(v, r) {
		t.Fatal("Ref does not share allocation")
	}
	if r.Label() != "x_captured" {
		t.Fatal("Ref label not applied")
	}
	v.Set(2, 5)
	if r.At(2) != 5 {
		t.Fatal("Ref does not share storage")
	}
	other := NewF64("y", 4)
	if SameAllocation(v, other) {
		t.Fatal("distinct views report same allocation")
	}
}

func TestI32RefSharesAllocation(t *testing.T) {
	v := NewI32("n", 4)
	r := v.Ref("n2")
	if !SameAllocation(v, r) {
		t.Fatal("I32 Ref does not share allocation")
	}
}

func TestF64SerializeRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		v := NewF64("rt", len(vals))
		copy(v.Data(), vals)
		w := NewF64("rt2", len(vals))
		if err := w.Deserialize(v.Serialize()); err != nil {
			return false
		}
		for i := range vals {
			if math.Float64bits(w.At(i)) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestI32SerializeRoundTrip(t *testing.T) {
	f := func(vals []int32) bool {
		v := NewI32("rt", len(vals))
		copy(v.Data(), vals)
		w := NewI32("rt2", len(vals))
		if err := w.Deserialize(v.Serialize()); err != nil {
			return false
		}
		return reflect.DeepEqual(v.Data(), w.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeserializeLengthMismatch(t *testing.T) {
	v := NewF64("x", 2)
	if err := v.Deserialize(make([]byte, 8)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	w := NewI32("y", 2)
	if err := w.Deserialize(make([]byte, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDryViews(t *testing.T) {
	v := NewF64Dry("huge", 400, 400, 400)
	if !v.Dry() {
		t.Fatal("not dry")
	}
	if v.SizeBytes() != 8*400*400*400 {
		t.Fatalf("dry size = %d", v.SizeBytes())
	}
	i := NewI32Dry("hugei", 1000)
	if i.SizeBytes() != 4000 {
		t.Fatalf("dry i32 size = %d", i.SizeBytes())
	}
	for _, fn := range []func(){
		func() { v.Data() },
		func() { v.Serialize() },
		func() { _ = v.Deserialize(nil) },
		func() { i.Data() },
		func() { i.Serialize() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("dry view data access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeepCopyF64(t *testing.T) {
	a := NewF64("a", 3)
	b := NewF64("b", 3)
	a.Set(1, 42)
	DeepCopyF64(b, a)
	if b.At(1) != 42 {
		t.Fatal("deep copy missed data")
	}
	if SameAllocation(a, b) {
		t.Fatal("deep copy aliased storage")
	}
}

func TestDeepCopyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched deep copy did not panic")
		}
	}()
	DeepCopyF64(NewF64("a", 2), NewF64("b", 3))
}

func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		e := NewExecSpace(workers)
		n := 1000
		hit := make([]int32, n)
		e.ParallelFor(n, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	e := NewExecSpace(4)
	e.ParallelFor(0, func(i int) { t.Fatal("called on empty range") })
	count := 0
	NewExecSpace(1).ParallelFor(3, func(i int) { count++ })
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
}

func TestChunksPartition(t *testing.T) {
	e := NewExecSpace(4)
	cs := e.chunks(10)
	if len(cs) != 4 {
		t.Fatalf("chunks = %d", len(cs))
	}
	next := 0
	total := 0
	for _, c := range cs {
		if c[0] != next {
			t.Fatalf("gap at %d", c[0])
		}
		next = c[1]
		total += c[1] - c[0]
	}
	if total != 10 || next != 10 {
		t.Fatalf("partition covers %d", total)
	}
}

func TestWorkersDefault(t *testing.T) {
	if NewExecSpace(0).workers <= 0 {
		t.Fatal("default workers not positive")
	}
	if NewExecSpace(5).workers != 5 {
		t.Fatal("explicit workers ignored")
	}
}
