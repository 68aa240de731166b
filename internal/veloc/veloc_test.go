package veloc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

func quietMachine() *sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	return m
}

// runRanks executes f on an n-rank ULFM world and fails the test on error.
func runRanks(t *testing.T, n int, f func(p *mpi.Proc) error) *mpi.World {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := mpi.NewWorld(cl, n, 1, false, 1, 0)
	res := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(p *mpi.Proc) {
			defer func() { done <- p.Rank() }()
			defer func() { recover() }() // allow Exit unwinds in failure tests
			res[p.Rank()] = f(p)
		}(w.Proc(i))
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, e := range res {
		if e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
	return w
}

func TestProtectAndCount(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		c.Protect(0, SliceRegion{&buf})
		c.Protect(0, SliceRegion{&buf}) // replace, not duplicate
		c.Protect(3, SliceRegion{&buf})
		if len(c.regions) != 2 || len(c.ids) != 2 {
			t.Errorf("%d regions under %d ids, want 2 and 2", len(c.regions), len(c.ids))
		}
		return nil
	})
}

func TestCheckpointRestartRoundTrip(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		a := []byte("region A contents")
		b := []byte{9, 8, 7}
		c.Protect(1, SliceRegion{&a})
		c.Protect(2, SliceRegion{&b})
		if err := c.Checkpoint("heat", 5); err != nil {
			return err
		}
		// Clobber and restore.
		copy(a, bytes.Repeat([]byte{0}, len(a)))
		copy(b, []byte{0, 0, 0})
		if err := c.Restart("heat", 5); err != nil {
			return err
		}
		if string(a) != "region A contents" || b[0] != 9 {
			t.Errorf("restore mismatch: %q %v", a, b)
		}
		return nil
	})
}

func TestCheckpointChargesCheckpointFunc(t *testing.T) {
	w := runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := make([]byte, 1<<20)
		c.Protect(0, SliceRegion{&buf})
		return c.Checkpoint("x", 1)
	})
	rec := w.Proc(0).Recorder()
	if rec.Get(trace.CheckpointFunc) <= 0 {
		t.Fatal("no CheckpointFunc time recorded")
	}
	if rec.Get(trace.ResilienceInit) <= 0 {
		t.Fatal("no ResilienceInit time recorded")
	}
}

func TestCheckpointCreatesCongestion(t *testing.T) {
	w := runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := make([]byte, 1<<26) // 64 MB
		c.Protect(0, SliceRegion{&buf})
		return c.Checkpoint("x", 1)
	})
	p := w.Proc(0)
	if !p.Node().CongestedAt(p.Now()) {
		t.Fatal("node not congested right after async checkpoint")
	}
}

func TestCheckpointNoRegionsFails(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		if err := c.Checkpoint("x", 1); err == nil {
			t.Error("checkpoint with no regions succeeded")
		}
		return nil
	})
}

func TestLatestVersionSingleMode(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := []byte{1}
		c.Protect(0, SliceRegion{&buf})
		if _, err := c.LatestVersion("x"); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("expected ErrNoCheckpoint, got %v", err)
		}
		for v := 1; v <= 3; v++ {
			if err := c.Checkpoint("x", v); err != nil {
				return err
			}
		}
		v, err := c.LatestVersion("x")
		if err != nil {
			return err
		}
		if v != 3 {
			t.Errorf("LatestVersion = %d", v)
		}
		return nil
	})
}

func TestLatestVersionCollectiveTakesGlobalMin(t *testing.T) {
	runRanks(t, 3, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		c, err := New(p, Config{Mode: Collective, Comm: comm})
		if err != nil {
			return err
		}
		buf := []byte{byte(p.Rank())}
		c.Protect(0, SliceRegion{&buf})
		// Rank 2 only reaches version 2; others reach 4.
		max := 4
		if p.Rank() == 2 {
			max = 2
		}
		for v := 1; v <= max; v++ {
			if err := c.Checkpoint("x", v); err != nil {
				return err
			}
		}
		v, err := c.LatestVersion("x")
		if err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("rank %d: global latest = %d, want 2", p.Rank(), v)
		}
		return nil
	})
}

func TestBestCommonVersionSingleMode(t *testing.T) {
	// The manual reduction the Fenix integration performs.
	runRanks(t, 3, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := []byte{0}
		c.Protect(0, SliceRegion{&buf})
		max := 5
		if p.Rank() == 1 {
			max = 3
		}
		for v := 1; v <= max; v++ {
			if err := c.Checkpoint("x", v); err != nil {
				return err
			}
		}
		v, err := c.BestCommonVersion("x", comm)
		if err != nil {
			return err
		}
		if v != 3 {
			t.Errorf("rank %d best common = %d, want 3", p.Rank(), v)
		}
		return nil
	})
}

func TestRestartFromPFSWhenScratchMissing(t *testing.T) {
	// Simulates a replacement process on another node restoring its
	// predecessor's checkpoint: scratch is on the dead rank's node, so the
	// restore must come from the PFS and cost DataRecovery time.
	cl := cluster.New(2, quietMachine())
	w := mpi.NewWorld(cl, 2, 1, false, 1, 0)

	// Rank 0 checkpoints as logical rank 7.
	p0 := w.Proc(0)
	c0, err := New(p0, Config{Mode: Single, Rank: 7, RankSet: true})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the payload")
	c0.Protect(0, SliceRegion{&data})
	if err := c0.Checkpoint("x", 1); err != nil {
		t.Fatal(err)
	}

	// Rank 1 (different node) restores logical rank 7's checkpoint.
	p1 := w.Proc(1)
	c1, err := New(p1, Config{Mode: Single, Rank: 7, RankSet: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	c1.Protect(0, SliceRegion{&out})
	if err := c1.Restart("x", 1); err != nil {
		t.Fatal(err)
	}
	if string(out) != "the payload" {
		t.Fatalf("restored %q", out)
	}
	if p1.Recorder().Get(trace.DataRecovery) <= 0 {
		t.Fatal("PFS restore must cost DataRecovery time")
	}
}

func TestRestartMissingVersion(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := []byte{1}
		c.Protect(0, SliceRegion{&buf})
		if err := c.Restart("x", 9); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("expected ErrNoCheckpoint, got %v", err)
		}
		return nil
	})
}

// TestRestartLatest restores the newest of three versions, found by
// LatestVersion.
func TestRestartLatest(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := []byte{0}
		c.Protect(0, SliceRegion{&buf})
		for v := 1; v <= 3; v++ {
			buf[0] = byte(v * 10)
			if err := c.Checkpoint("x", v); err != nil {
				return err
			}
		}
		buf[0] = 0
		v, err := c.LatestVersion("x")
		if err != nil {
			return err
		}
		if err := c.Restart("x", v); err != nil {
			return err
		}
		if v != 3 || buf[0] != 30 {
			t.Errorf("restart from the latest version: v=%d buf=%d", v, buf[0])
		}
		return nil
	})
}

func TestCollectiveRequiresComm(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		if _, err := New(p, Config{Mode: Collective}); err == nil {
			t.Error("collective mode without comm accepted")
		}
		return nil
	})
}

func TestSetRankRedirectsKeys(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := []byte{42}
		c.Protect(0, SliceRegion{&buf})
		if err := c.Checkpoint("x", 1); err != nil {
			return err
		}
		c.SetRank(c.Rank() + 1)
		if err := c.Restart("x", 1); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("restart under new rank should miss, got %v", err)
		}
		c.SetRank(p.Rank())
		return c.Restart("x", 1)
	})
}

func TestUnregisteredRegionInBlobFails(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		a := []byte{1}
		b := []byte{2}
		c.Protect(0, SliceRegion{&a})
		c.Protect(1, SliceRegion{&b})
		if err := c.Checkpoint("x", 1); err != nil {
			return err
		}
		fresh, _ := New(p, Config{Mode: Single})
		fresh.Protect(0, SliceRegion{&a})
		if err := fresh.Restart("x", 1); err == nil {
			t.Error("restart with unregistered region succeeded")
		}
		return nil
	})
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		ok := true
		runRanks(t, 1, func(p *mpi.Proc) error {
			c, _ := New(p, Config{Mode: Single})
			ac := append([]byte(nil), a...)
			bc := append([]byte(nil), b...)
			c.Protect(0, SliceRegion{&ac})
			c.Protect(7, SliceRegion{&bc})
			if err := c.Checkpoint("p", 1); err != nil {
				ok = len(a) == 0 && len(b) == 0 // zero-size regions still allowed
				return nil
			}
			for i := range ac {
				ac[i] = 0
			}
			for i := range bc {
				bc[i] = 0
			}
			if err := c.Restart("p", 1); err != nil {
				ok = false
				return nil
			}
			ok = bytes.Equal(ac, a) && bytes.Equal(bc, b)
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Collective.String() != "collective" || Single.String() != "single" {
		t.Fatal("mode strings wrong")
	}
}

func TestAvailableMissing(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		if c.Available("nope", 3) {
			t.Error("phantom checkpoint available")
		}
		return nil
	})
}

func TestCorruptCheckpointDetected(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, _ := New(p, Config{Mode: Single})
		buf := []byte("precious state")
		c.Protect(0, SliceRegion{&buf})
		if err := c.Checkpoint("x", 1); err != nil {
			return err
		}
		// Corrupt the stored copy in the PFS and drop scratch so the
		// restore must go through it.
		pfs := p.World().Cluster().PFS()
		key := dataKey("x", 1, c.Rank())
		blob, _, ok := pfs.Read(key, p.Now())
		if !ok {
			t.Fatal("checkpoint missing from PFS")
		}
		blob[len(blob)-1] ^= 0xFF
		pfs.Write(key, blob, p.Now())
		p.Node().ScratchDelete(key)

		err := c.Restart("x", 1)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("restart of corrupted checkpoint: %v", err)
		}
		return nil
	})
}
