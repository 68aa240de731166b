package chaos

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
)

// scaleTimeout replaces the default 30s watchdog for the O(1k-4k)-rank
// cells: a 4096-rank replay pair legitimately needs a few minutes under
// -race, and a hang still fails fast relative to the test binary timeout.
const scaleTimeout = 5 * time.Minute

// Scale cells: the tree collective engine's acceptance runs. A 4096-rank
// heatdis job with a mid-run failure must complete — repair, recompute,
// and converge to the failure-free checksum — and produce a byte-identical
// report across two replays of the same seed. These ride behind -short so
// the quick edit loop stays quick; CI and scripts/check.sh run them in
// full (plus `make chaos CHAOS_SCALE=1024` for the storm-wave smoke).

// scale4096Config is a hand-built 4096-rank heatdis cell: one rank per
// node (the campaign's standard topology — co-resident ranks with deep
// virtual skew make flush coalescing wall-order dependent, see the
// determinism notes in cluster/flushsched.go), one spare, the flush
// scheduler on, and one mid-run rank kill so the repair path (failure
// detection, spare substitution, rollback, recompute) runs at full width.
func scale4096Config() RunConfig {
	return RunConfig{
		Seed: 4096, App: AppHeatdis, Mode: ModeIteration,
		Ranks: 4096, Spares: 1, RanksPerNode: 1,
		Iters: 6, Interval: 2,
		Flush:    cluster.FlushPolicy{Window: 2, Coalesce: true},
		Schedule: Schedule{Kills: []Kill{{Rank: 1234, Point: PointIteration, Hit: 3}}},
	}
}

func TestScale4096HeatdisReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank cell skipped in -short mode")
	}
	var out [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep := RunOne(scale4096Config(), NewRefCache(), scaleTimeout)
		for _, v := range rep.Violations {
			t.Error(v)
		}
		if rep.JobFailed {
			t.Fatalf("4096-rank run failed: %s", rep.Error)
		}
		if rep.Survived != 1 || rep.Unrepaired != 0 {
			t.Fatalf("survived %d, unrepaired %d; want the mid-run kill repaired", rep.Survived, rep.Unrepaired)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("4096-rank replay differs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			out[0].String(), out[1].String())
	}
}

// TestScale8192HeatdisReplay is the O(10k) acceptance cell for the
// worker-pool execution mode: 8192 ranks under ExecPool with a mid-run
// kill, repaired online, byte-identical across two replays. A
// goroutine-per-rank world this size is what the pool exists to avoid,
// so the cell runs pool-only; its virtual outcome is pinned to goroutine
// mode by TestCampaignMatrix's two-mode rows at smaller widths. It is
// gated behind CHAOS_NIGHTLY=1 (the nightly CI tier and
// `scripts/check.sh nightly`) so the per-commit tier-1 sweep stays fast.
func TestScale8192HeatdisReplay(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("8192-rank cell runs in the nightly tier (set CHAOS_NIGHTLY=1)")
	}
	if testing.Short() {
		t.Skip("8192-rank cell skipped in -short mode")
	}
	cfg := RunConfig{
		Seed: 8192, App: AppHeatdis, Mode: ModeIteration,
		Ranks: 8192, Spares: 1, RanksPerNode: 1,
		Iters: 6, Interval: 2,
		Flush:    cluster.FlushPolicy{Window: 2, Coalesce: true},
		Schedule: Schedule{Kills: []Kill{{Rank: 5678, Point: PointIteration, Hit: 3}}},
		Exec:     "pool",
	}
	var out [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep := RunOne(cfg, NewRefCache(), 4*scaleTimeout)
		for _, v := range rep.Violations {
			t.Error(v)
		}
		if rep.JobFailed {
			t.Fatalf("8192-rank run failed: %s", rep.Error)
		}
		if rep.Survived != 1 || rep.Unrepaired != 0 {
			t.Fatalf("survived %d, unrepaired %d; want the mid-run kill repaired", rep.Survived, rep.Unrepaired)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("8192-rank replay differs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			out[0].String(), out[1].String())
	}
}

// TestScale1024LocalizedStormReplay is the nightly localized-recovery
// storm cell: 1024 ranks under the worker-pool execution mode, three
// staggered kills absorbed by one spare plus a two-rank rehost reserve,
// so the sender-based message log stays live across every repair and
// each replacement recovers by restore-and-replay while 1023 survivors
// pause in place. The report — including the replay ledger and the
// byte-identity invariant against the failure-free reference — must be
// a pure function of the seed across two replays. Gated behind
// CHAOS_NIGHTLY=1 like the O(10k) pool cell so the per-commit tier
// stays fast.
func TestScale1024LocalizedStormReplay(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("1024-rank localized storm runs in the nightly tier (set CHAOS_NIGHTLY=1)")
	}
	if testing.Short() {
		t.Skip("1024-rank localized storm skipped in -short mode")
	}
	cfg := RunConfig{
		Seed: 1025, App: AppHeatdis, Mode: ModeLocalizedShrink,
		Ranks: 1024, Spares: 1, Rehost: 2, Shrink: true, RanksPerNode: 1,
		Localized: true,
		Iters:     16, Interval: 4,
		Flush: cluster.FlushPolicy{Window: 2, Coalesce: true},
		Schedule: Schedule{Kills: []Kill{
			{Rank: 100, Point: PointIteration, Hit: 5},
			{Rank: 500, Point: PointIteration, Hit: 9},
			{Rank: 900, Point: PointIteration, Hit: 13},
		}},
		Exec: "pool",
	}
	var out [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep := RunOne(cfg, NewRefCache(), scaleTimeout)
		for _, v := range rep.Violations {
			t.Error(v)
		}
		if rep.JobFailed {
			t.Fatalf("1024-rank localized storm failed: %s", rep.Error)
		}
		if rep.Repaired != 3 || rep.Unrepaired != 0 {
			t.Fatalf("repaired %d, unrepaired %d; want all three kills repaired", rep.Repaired, rep.Unrepaired)
		}
		if rep.MsgsReplayed == 0 {
			t.Error("localized storm replayed no logged messages (degraded to global rollback?)")
		}
		if rep.Rehosts != 2 {
			t.Errorf("rehosts %d, want the two-rank reserve fully drawn", rep.Rehosts)
		}
		if rep.Shrunk != 0 {
			t.Errorf("shrunk %d, want the reserve to absorb every kill without compaction", rep.Shrunk)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("1024-rank localized storm replay differs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			out[0].String(), out[1].String())
	}
}
