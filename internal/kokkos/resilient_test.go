package kokkos

import (
	"errors"
	"math"
	"testing"
)

func TestCloneIsIndependent(t *testing.T) {
	v := NewF64("grid", 4, 4)
	for i := 0; i < v.Len(); i++ {
		v.Data()[i] = float64(i)
	}
	v.SetSimBytes(1 << 20)
	cp := v.Clone()
	if SameAllocation(v, cp) {
		t.Fatal("clone aliases the original allocation")
	}
	if !v.Equal(cp) {
		t.Fatal("clone differs from original")
	}
	if cp.SimBytes() != v.SimBytes() {
		t.Fatalf("clone simBytes %d, want %d", cp.SimBytes(), v.SimBytes())
	}
	cp.Data()[3] = -1
	if v.Data()[3] == -1 {
		t.Fatal("writing the clone mutated the original")
	}
	// A Ref shares the allocation, but its clone must not.
	ref := v.Ref("grid@capture")
	if !SameAllocation(v, ref) {
		t.Fatal("Ref should alias")
	}
	if SameAllocation(ref, ref.Clone()) {
		t.Fatal("clone of a Ref still aliases")
	}
}

func TestEqualIsBitwise(t *testing.T) {
	a := NewF64("a", 3)
	b := NewF64("b", 3)
	if !a.Equal(b) {
		t.Fatal("fresh equal-shaped views should be equal")
	}
	// NaN == NaN bitwise, unlike float comparison.
	a.Set(0, math.NaN())
	b.Set(0, math.NaN())
	if !a.Equal(b) {
		t.Fatal("identical NaN payloads should compare equal bitwise")
	}
	// Signed zero is distinguished.
	b.Set(1, math.Copysign(0, -1))
	if a.Equal(b) {
		t.Fatal("+0 and -0 should differ bitwise")
	}
	// Shape mismatch, even at equal length.
	c := NewF64("c", 1, 3)
	if ViewsEqual(a, c) {
		t.Fatal("different shapes should not be equal")
	}
	// Kind mismatch through the interface.
	if ViewsEqual(a, NewI32("i", 3)) {
		t.Fatal("different kinds should not be equal")
	}
	// Dry views compare by shape only.
	d1 := NewF64Dry("d", 5)
	d2 := NewF64Dry("d2", 5)
	if !ViewsEqual(d1, d2) {
		t.Fatal("dry views of equal shape should be equal")
	}
}

func TestFlipBitDeterministic(t *testing.T) {
	mk := func() []View {
		a := NewF64("a", 4)
		b := NewF64("b", 4)
		for i := 0; i < 4; i++ {
			a.Data()[i] = float64(i + 1)
			b.Data()[i] = float64(10 * (i + 1))
		}
		return []View{a, b}
	}
	v1, v2 := mk(), mk()
	l1, e1 := FlipBit(v1, 0.7, 3)
	l2, e2 := FlipBit(v2, 0.7, 3)
	if l1 != l2 || e1 != e2 {
		t.Fatalf("flip site not deterministic: (%s,%d) vs (%s,%d)", l1, e1, l2, e2)
	}
	// frac 0.7 of 8 elements = flat index 5 -> second view, element 1.
	if l1 != "b" || e1 != 1 {
		t.Fatalf("flip landed at (%s,%d), want (b,1)", l1, e1)
	}
	if !ViewsEqual(v1[1], v2[1]) {
		t.Fatal("identical flips should produce identical payloads")
	}
	if ViewsEqual(v1[1], mk()[1]) {
		t.Fatal("flip did not change the payload")
	}
	// Flipping the same bit twice restores the original exactly.
	FlipBit(v1, 0.7, 3)
	if !ViewsEqual(v1[1], mk()[1]) {
		t.Fatal("double flip should restore the original")
	}
	// Dry views are skipped; all-dry input reports no site.
	if l, e := FlipBit([]View{NewF64Dry("d", 8)}, 0.5, 0); l != "" || e != -1 {
		t.Fatalf("dry flip reported (%s,%d), want none", l, e)
	}
}

// countingCorrupt flips one bit in the first view on the first call only
// (the single-event-upset model used by the chaos scheduler).
func countingCorrupt(frac float64, bit int) func([]View) int {
	fired := false
	return func(views []View) int {
		if fired {
			return 0
		}
		fired = true
		if _, e := FlipBit(views, frac, bit); e < 0 {
			return 0
		}
		return 1
	}
}

func regionViews() []View {
	v := NewF64("state", 8)
	for i := 0; i < 8; i++ {
		v.Data()[i] = 1.0
	}
	return []View{v}
}

func squareBody(views []View) func() {
	v := views[0].(*F64View)
	return func() {
		for i := range v.Data() {
			v.Data()[i] = 2.0 // deterministic overwrite
		}
	}
}

func TestRegionReplayCorrects(t *testing.T) {
	views := regionViews()
	r := Region{
		Policy:   SDCReplay,
		Validate: BoundsValidator(0, 3),
		Corrupt:  countingCorrupt(0.5, 60), // exponent flip: way out of bounds
	}
	rep, err := r.Run(views, squareBody(views))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Injected != 1 || rep.Detected != 1 || rep.Corrected != 1 || rep.Escaped != 0 {
		t.Fatalf("replay accounting = %+v", rep)
	}
	if rep.Replays != 1 {
		t.Fatalf("replays = %d, want 1", rep.Replays)
	}
	for _, x := range views[0].(*F64View).Data() {
		if x != 2.0 {
			t.Fatalf("replay left corrupted data: %v", x)
		}
	}
}

func TestRegionReplayEscape(t *testing.T) {
	views := regionViews()
	r := Region{
		Policy:   SDCReplay,
		Validate: BoundsValidator(0, 3),
		Corrupt:  countingCorrupt(0.5, 51), // top mantissa bit: 2.0 -> 3.0, in bounds
	}
	rep, err := r.Run(views, squareBody(views))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Injected != 1 || rep.Detected != 0 || rep.Escaped != 1 || rep.Replays != 0 {
		t.Fatalf("in-bounds flip should escape replay: %+v", rep)
	}
}

func TestRegionVoteCorrects(t *testing.T) {
	// Vote detects even the in-bounds mantissa flip that escapes replay.
	views := regionViews()
	r := Region{Policy: SDCVote, Corrupt: countingCorrupt(0.5, 51)}
	rep, err := r.Run(views, squareBody(views))
	if err != nil {
		t.Fatalf("vote: %v", err)
	}
	if rep.Injected != 1 || rep.Detected != 1 || rep.Corrected != 1 || rep.Escaped != 0 {
		t.Fatalf("vote accounting = %+v", rep)
	}
	if rep.Votes != 2 {
		t.Fatalf("votes = %d, want 2 (duplicate + tie-break)", rep.Votes)
	}
	for _, x := range views[0].(*F64View).Data() {
		if x != 2.0 {
			t.Fatalf("vote left corrupted data: %v", x)
		}
	}
}

func TestRegionBareEscapes(t *testing.T) {
	for _, pol := range []SDCPolicy{SDCNone, SDCChecksum} {
		views := regionViews()
		r := Region{Policy: pol, Corrupt: countingCorrupt(0.25, 62)}
		rep, err := r.Run(views, squareBody(views))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if rep.Injected != 1 || rep.Escaped != 1 || rep.Detected != 0 {
			t.Fatalf("%v accounting = %+v", pol, rep)
		}
	}
}

func TestRegionReplayEscalates(t *testing.T) {
	views := regionViews()
	// A corruptor that re-flips on every execution defeats replay: the
	// validator keeps rejecting until retries run out.
	r := Region{
		Policy:   SDCReplay,
		Retries:  2,
		Validate: func([]View) bool { return false },
	}
	rep, err := r.Run(views, squareBody(views))
	if !errors.Is(err, ErrSDCUnrecoverable) {
		t.Fatalf("err = %v, want ErrSDCUnrecoverable", err)
	}
	if !rep.Escalated || rep.Replays != 2 {
		t.Fatalf("escalation accounting = %+v", rep)
	}
}

func TestParseSDCPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SDCPolicy
	}{{"", SDCNone}, {"none", SDCNone}, {"checksum", SDCChecksum}, {"replay", SDCReplay}, {"VOTE", SDCVote}} {
		got, err := ParseSDCPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSDCPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != "" && ParseMust(t, got.String()) != got {
			t.Fatalf("round-trip failed for %v", got)
		}
	}
	if _, err := ParseSDCPolicy("bogus"); err == nil {
		t.Fatal("bogus policy should not parse")
	}
}

func ParseMust(t *testing.T, s string) SDCPolicy {
	t.Helper()
	p, err := ParseSDCPolicy(s)
	if err != nil {
		t.Fatalf("ParseSDCPolicy(%q): %v", s, err)
	}
	return p
}

// alwaysCorrupt flips one bit in the views on every call.
func alwaysCorrupt(frac float64, bit int) func([]View) int {
	return func(views []View) int {
		if _, e := FlipBit(views, frac, bit); e < 0 {
			return 0
		}
		return 1
	}
}

// TestRegionSnapshotAllocs checks that a region running over the same
// views refreshes its snapshot copies in place: after the first run,
// neither replay nor vote clones a view, on the clean path or on the
// detect-and-repair path.
func TestRegionSnapshotAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Region
	}{
		{"replay/clean", Region{Policy: SDCReplay, Validate: BoundsValidator(0, 3)}},
		{"replay/corrupted", Region{Policy: SDCReplay, Validate: BoundsValidator(0, 3), Corrupt: alwaysCorrupt(0.5, 60)}},
		{"vote/clean", Region{Policy: SDCVote}},
		{"vote/corrupted", Region{Policy: SDCVote, Corrupt: alwaysCorrupt(0.5, 51)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := append(regionViews(), NewI32("index", 16))
			body := squareBody(views)
			r := tc.r
			run := func() {
				if _, err := r.Run(views, body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Fatalf("steady-state run allocates %v times", n)
			}
		})
	}
}

// TestRegionReuseMatchesFreshCopies runs the same sequence of regions on
// one Region and on a fresh Region per run, over capture lists that grow,
// shrink and change a view's kind and shape between runs, and requires
// identical reports and view contents.
func TestRegionReuseMatchesFreshCopies(t *testing.T) {
	lists := func() [][]View {
		a, b := NewF64("a", 8), NewF64("b", 2, 4)
		c, d := NewI32("c", 8), NewF64("d", 4, 2)
		return [][]View{{a}, {a, b}, {a, c}, {a, d, c}, {d}, {a, b}}
	}
	for _, pol := range []SDCPolicy{SDCReplay, SDCVote} {
		fresh, reused := lists(), lists()
		mk := func() Region {
			return Region{Policy: pol, Validate: BoundsValidator(0, 100), Corrupt: alwaysCorrupt(0.3, 62)}
		}
		kept := mk()
		for i := range fresh {
			step := func(views []View) func() {
				return func() {
					for k, v := range views {
						switch v := v.(type) {
						case *F64View:
							for j := range v.Data() {
								v.Data()[j] = float64(i + j + k)
							}
						case *I32View:
							for j := range v.Data() {
								v.Data()[j] += int32(j)
							}
						}
					}
				}
			}
			one := mk()
			want, werr := one.Run(fresh[i], step(fresh[i]))
			got, gerr := kept.Run(reused[i], step(reused[i]))
			if got != want || (werr == nil) != (gerr == nil) {
				t.Fatalf("%v run %d: report %+v, %v; a fresh region gave %+v, %v", pol, i, got, gerr, want, werr)
			}
			for k := range fresh[i] {
				if !ViewsEqual(fresh[i][k], reused[i][k]) {
					t.Fatalf("%v run %d: view %s differs from the fresh region's", pol, i, fresh[i][k].Label())
				}
			}
		}
	}
}
