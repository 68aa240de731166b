package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClockAt(0)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClockAt(0)
	c.Advance(1.5)
	c.Advance(0.5)
	if got := c.Now(); got != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", got)
	}
}

func TestClockAdvanceZero(t *testing.T) {
	c := NewClockAt(3)
	c.Advance(0)
	if c.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", c.Now())
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClockAt(0).Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClockAt(5)
	if waited := c.AdvanceTo(8); waited != 3 {
		t.Fatalf("AdvanceTo(8) waited %v, want 3", waited)
	}
	if waited := c.AdvanceTo(2); waited != 0 {
		t.Fatalf("AdvanceTo(2) waited %v, want 0 (no backwards travel)", waited)
	}
	if c.Now() != 8 {
		t.Fatalf("Now() = %v, want 8", c.Now())
	}
}

func TestClockSet(t *testing.T) {
	c := NewClockAt(9)
	c.Set(1)
	if c.Now() != 1 {
		t.Fatalf("Set(1) then Now() = %v", c.Now())
	}
}

func TestClockAdvanceToMonotone(t *testing.T) {
	// Property: after AdvanceTo(t), Now() >= t and Now() never decreased.
	f := func(start, target float64) bool {
		start = math.Abs(start)
		target = math.Abs(target)
		c := NewClockAt(start)
		c.AdvanceTo(target)
		return c.Now() >= start && c.Now() >= target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMachineSane(t *testing.T) {
	m := DefaultMachine()
	if m.ComputeRate <= 0 || m.NetBandwidth <= 0 || m.PFSAggregateBandwidth <= 0 {
		t.Fatal("default machine has non-positive rates")
	}
	if m.PFSPerClientBandwidth > m.PFSAggregateBandwidth {
		t.Fatal("per-client PFS bandwidth exceeds aggregate")
	}
	if m.CongestionFactor < 1 {
		t.Fatal("congestion factor must be >= 1")
	}
}

func TestComputeTime(t *testing.T) {
	m := &Machine{ComputeRate: 100}
	if got := m.ComputeTime(50); got != 0.5 {
		t.Fatalf("ComputeTime(50) = %v, want 0.5", got)
	}
	if got := m.ComputeTime(0); got != 0 {
		t.Fatalf("ComputeTime(0) = %v, want 0", got)
	}
	if got := m.ComputeTime(-5); got != 0 {
		t.Fatalf("ComputeTime(-5) = %v, want 0", got)
	}
}

func TestTransferTime(t *testing.T) {
	m := &Machine{NetLatency: 1e-6, NetBandwidth: 1e9}
	got := m.TransferTime(1e6)
	want := 1e-6 + 1e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestCollectiveTimeScalesLogarithmically(t *testing.T) {
	m := DefaultMachine()
	t2 := m.CollectiveTime(2, 8)
	t4 := m.CollectiveTime(4, 8)
	t8 := m.CollectiveTime(8, 8)
	if !(t2 < t4 && t4 < t8) {
		t.Fatalf("collective time not increasing: %v %v %v", t2, t4, t8)
	}
	if m.CollectiveTime(1, 8) != 0 {
		t.Fatal("single-rank collective should be free")
	}
	// log2 scaling: 8 ranks = 3 hops, 2 ranks = 1 hop.
	if math.Abs(t8/t2-3) > 1e-9 {
		t.Fatalf("t8/t2 = %v, want 3", t8/t2)
	}
}

func TestLaunchAndTeardownScaleWithNodes(t *testing.T) {
	m := DefaultMachine()
	if !(m.LaunchTime(64) > m.LaunchTime(4)) {
		t.Fatal("launch time must grow with node count")
	}
	if !(m.TeardownTime(64) > m.TeardownTime(4)) {
		t.Fatal("teardown time must grow with node count")
	}
}

func TestRepairTimeScalesWithRanks(t *testing.T) {
	m := DefaultMachine()
	if !(m.RepairTime(64) > m.RepairTime(2)) {
		t.Fatal("repair time must grow with rank count")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("Jitter(0.1) = %v out of bounds", j)
		}
	}
	if NewRNG(1).Jitter(0) != 1 {
		t.Fatal("Jitter(0) must be exactly 1")
	}
	if NewRNG(1).Jitter(-1) != 1 {
		t.Fatal("Jitter(<0) must be exactly 1")
	}
}

func TestRNGUniformity(t *testing.T) {
	// Coarse chi-square style sanity check over 16 buckets.
	r := NewRNG(99)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	want := n / 16
	for i, c := range buckets {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestPresetsAreDistinctAndSane(t *testing.T) {
	seen := map[float64]string{}
	for name, mk := range Presets {
		m := mk()
		if m.ComputeRate <= 0 || m.NetBandwidth <= 0 || m.PFSAggregateBandwidth <= 0 {
			t.Fatalf("preset %q has non-positive rates", name)
		}
		if m.PFSPerClientBandwidth > m.PFSAggregateBandwidth {
			t.Fatalf("preset %q per-client PFS exceeds aggregate", name)
		}
		if prev, dup := seen[m.NetBandwidth+m.PFSAggregateBandwidth]; dup {
			t.Fatalf("presets %q and %q look identical", name, prev)
		}
		seen[m.NetBandwidth+m.PFSAggregateBandwidth] = name
	}
	if len(Presets) < 3 {
		t.Fatalf("expected >=3 presets, got %d", len(Presets))
	}
}

func TestCommoditySlowerThanXC40(t *testing.T) {
	x, c := MachineXC40(), MachineCommodity()
	if !(c.TransferTime(1<<20) > x.TransferTime(1<<20)) {
		t.Fatal("commodity transfer not slower")
	}
	if !(c.NetLatency > x.NetLatency) {
		t.Fatal("commodity latency not higher")
	}
}

func TestExascaleFasterThanXC40(t *testing.T) {
	x, e := MachineXC40(), MachineExascale()
	if !(e.ComputeTime(1e9) < x.ComputeTime(1e9)) {
		t.Fatal("exascale compute not faster")
	}
	if !(e.TransferTime(1<<20) < x.TransferTime(1<<20)) {
		t.Fatal("exascale transfer not faster")
	}
}
