package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		AppCompute:     "App compute",
		AppMPI:         "App MPI",
		ResilienceInit: "Resilience Initialization",
		CheckpointFunc: "Checkpoint Function",
		DataRecovery:   "Data Recovery",
		Recompute:      "Recompute",
		Other:          "Other",
		ForceCompute:   "Force Compute",
		Neighboring:    "Neighboring",
		Communicator:   "Communicator",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Category(-1).String(); got != "Category(-1)" {
		t.Errorf("invalid category String() = %q", got)
	}
}

func TestRecorderBasicAccumulation(t *testing.T) {
	r := NewRecorder()
	r.Add(AppCompute, 1.0)
	r.Add(AppCompute, 2.0)
	r.Add(AppMPI, 0.5)
	if got := r.Get(AppCompute); got != 3.0 {
		t.Fatalf("AppCompute = %v, want 3", got)
	}
	if got := r.Get(AppMPI); got != 0.5 {
		t.Fatalf("AppMPI = %v, want 0.5", got)
	}
	if got := r.Snapshot().Total(); got != 3.5 {
		t.Fatalf("Total = %v, want 3.5", got)
	}
}

func TestRecorderZeroIsNoop(t *testing.T) {
	r := NewRecorder()
	r.Add(AppCompute, 0)
	if r.Snapshot().Total() != 0 {
		t.Fatal("zero add changed totals")
	}
}

func TestRecorderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRecorder().Add(AppCompute, -1)
}

func TestSectionRedirection(t *testing.T) {
	r := NewRecorder()
	r.BeginSection(ForceCompute)
	r.Add(AppCompute, 2)
	r.Add(AppMPI, 1)
	r.EndSection()
	r.Add(AppCompute, 5)
	if got := r.Get(ForceCompute); got != 3 {
		t.Fatalf("ForceCompute = %v, want 3", got)
	}
	if got := r.Get(AppCompute); got != 5 {
		t.Fatalf("AppCompute = %v, want 5", got)
	}
	if got := r.Get(AppMPI); got != 0 {
		t.Fatalf("AppMPI = %v, want 0 (redirected)", got)
	}
}

func TestBeginSectionRejectsNonSection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BeginSection(AppCompute) did not panic")
		}
	}()
	NewRecorder().BeginSection(AppCompute)
}

func TestRecomputeRedirection(t *testing.T) {
	r := NewRecorder()
	r.SetRecompute(true)
	r.Add(AppCompute, 4)
	r.Add(AppMPI, 2)
	r.SetRecompute(false)
	r.Add(AppCompute, 1)
	if got := r.Get(Recompute); got != 6 {
		t.Fatalf("Recompute = %v, want 6 (compute + MPI)", got)
	}
	if got := r.Get(AppCompute); got != 1 {
		t.Fatalf("AppCompute = %v, want 1", got)
	}
}

func TestRecomputeOverridesSection(t *testing.T) {
	r := NewRecorder()
	r.BeginSection(Communicator)
	r.SetRecompute(true)
	r.Add(AppCompute, 2)
	if got := r.Get(Recompute); got != 2 {
		t.Fatalf("Recompute = %v, want 2 (recompute wins over section)", got)
	}
}

func TestAddRawBypassesRedirection(t *testing.T) {
	r := NewRecorder()
	r.SetRecompute(true)
	r.AddRaw(AppCompute, 3)
	if got := r.Get(AppCompute); got != 3 {
		t.Fatalf("AddRaw redirected: AppCompute = %v", got)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRecorder()
	r.Add(CheckpointFunc, 1.25)
	snap := r.Snapshot()
	r.Add(CheckpointFunc, 1)
	if snap.Get(CheckpointFunc) != 1.25 {
		t.Fatal("snapshot mutated by a later Add")
	}
}

func TestTimesArithmetic(t *testing.T) {
	var a, b Times
	a[AppCompute] = 2
	a[AppMPI] = 1
	b[AppCompute] = 0.5
	b[DataRecovery] = 3

	sum := a.Add(b)
	if sum.Get(AppCompute) != 2.5 || sum.Get(DataRecovery) != 3 {
		t.Fatalf("Add wrong: %v", sum)
	}
	sc := a.Scale(2)
	if sc.Get(AppCompute) != 4 || sc.Get(AppMPI) != 2 {
		t.Fatalf("Scale wrong: %v", sc)
	}
}

func TestWithOther(t *testing.T) {
	var a Times
	a[AppCompute] = 3
	a[AppMPI] = 2
	got := a.WithOther(7)
	if got.Get(Other) != 2 {
		t.Fatalf("Other = %v, want 2", got.Get(Other))
	}
	// Wall shorter than accounted: clamp to zero, never negative.
	got = a.WithOther(4)
	if got.Get(Other) != 0 {
		t.Fatalf("Other = %v, want 0", got.Get(Other))
	}
}

func TestWithOtherReplacesPriorOther(t *testing.T) {
	var a Times
	a[Other] = 99
	a[AppCompute] = 1
	got := a.WithOther(3)
	if got.Get(Other) != 2 {
		t.Fatalf("Other = %v, want 2 (prior Other replaced)", got.Get(Other))
	}
}

func TestTimesTotalMatchesSum(t *testing.T) {
	f := func(a, b, c float64) bool {
		a, b, c = math.Abs(a), math.Abs(b), math.Abs(c)
		if math.IsInf(a+b+c, 0) || math.IsNaN(a+b+c) {
			return true
		}
		r := NewRecorder()
		r.Add(AppCompute, a)
		r.Add(AppMPI, b)
		r.Add(CheckpointFunc, c)
		return math.Abs(r.Snapshot().Total()-(a+b+c)) < 1e-9*(1+a+b+c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimesAddCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		var x, y Times
		x[AppCompute] = a
		y[AppCompute] = b
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoriesCoversAll(t *testing.T) {
	if len(Categories()) != int(numCategories) {
		t.Fatalf("Categories() returns %d entries, want %d", len(Categories()), numCategories)
	}
	seen := map[Category]bool{}
	for _, c := range Categories() {
		if seen[c] {
			t.Fatalf("duplicate category %v", c)
		}
		seen[c] = true
	}
}

func TestStringRendersNonZero(t *testing.T) {
	var a Times
	a[AppCompute] = 1
	s := a.String()
	if s == "" {
		t.Fatal("String() empty for non-zero Times")
	}
}
