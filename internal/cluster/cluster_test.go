package cluster

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testMachine() *sim.Machine {
	m := sim.DefaultMachine()
	return m
}

func TestNewClusterSizing(t *testing.T) {
	c := New(4, testMachine())
	if c.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", c.Size())
	}
	for i := 0; i < 4; i++ {
		if c.Node(i).ID() != i {
			t.Fatalf("node %d has ID %d", i, c.Node(i).ID())
		}
	}
}

func TestNewClusterPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, testMachine())
}

func TestNodeOutOfRangePanics(t *testing.T) {
	c := New(2, testMachine())
	defer func() {
		if recover() == nil {
			t.Fatal("Node(5) did not panic")
		}
	}()
	c.Node(5)
}

func TestScratchRoundTrip(t *testing.T) {
	n := New(1, testMachine()).Node(0)
	data := []byte("hello checkpoint")
	cost := n.ScratchWrite("k", data)
	if cost <= 0 {
		t.Fatal("scratch write cost should be positive")
	}
	got, rcost, ok := n.ScratchRead("k")
	if !ok {
		t.Fatal("scratch read missed")
	}
	if rcost <= 0 {
		t.Fatal("scratch read cost should be positive")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

// TestScratchOwnership pins the scratch contract: a write keeps the
// caller's slice and a read returns that same slice, with no copy on
// either side, so a stored blob is immutable only because no one writes
// to it after handing it over.
func TestScratchOwnership(t *testing.T) {
	n := New(1, testMachine()).Node(0)
	data := []byte{1, 2, 3}
	n.ScratchWrite("k", data)
	got, _, _ := n.ScratchRead("k")
	if &got[0] != &data[0] || len(got) != len(data) {
		t.Fatal("scratch copied the blob on write or read")
	}
	got2, _, _ := n.ScratchRead("k")
	if &got2[0] != &data[0] {
		t.Fatal("two scratch reads returned different slices")
	}
	if allocs := testing.AllocsPerRun(10, func() { n.ScratchWriteSized("k", data, 1<<30) }); allocs != 0 {
		t.Fatalf("ScratchWriteSized allocated %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { n.ScratchRead("k") }); allocs != 0 {
		t.Fatalf("ScratchRead allocated %v times, want 0", allocs)
	}
}

func TestScratchMissingAndDelete(t *testing.T) {
	n := New(1, testMachine()).Node(0)
	if _, _, ok := n.ScratchRead("nope"); ok {
		t.Fatal("read of missing key succeeded")
	}
	n.ScratchWrite("k", []byte{1})
	n.ScratchDelete("k")
	if _, _, ok := n.ScratchRead("k"); ok {
		t.Fatal("read after delete succeeded")
	}
	n.ScratchWrite("a", []byte{1})
	n.ScratchWrite("b", []byte{2})
	n.ScratchClear()
	for _, k := range []string{"a", "b"} {
		if _, _, ok := n.ScratchRead(k); ok {
			t.Fatalf("ScratchClear left entry %q", k)
		}
	}
}

func TestFlushAsyncMissingKey(t *testing.T) {
	n := New(1, testMachine()).Node(0)
	if _, err := n.FlushAsyncFor("missing", "pfs/x", 0, NoOwner); err == nil {
		t.Fatal("flush of missing key did not error")
	}
}

func TestFlushCreatesCongestionWindow(t *testing.T) {
	c := New(1, testMachine())
	n := c.Node(0)
	data := make([]byte, 1<<27) // 128 MB
	n.ScratchWrite("ck", data)
	end, err := n.FlushAsyncFor("ck", "pfs/ck", 10.0, NoOwner)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 10.0 {
		t.Fatalf("flush end %v not after start", end)
	}
	if !n.CongestedAt(10.0) || !n.CongestedAt((10.0+end)/2) {
		t.Fatal("node not congested during flush")
	}
	if n.CongestedAt(end + 1) {
		t.Fatal("node congested after flush end")
	}
	if n.CongestedAt(9.9) {
		t.Fatal("node congested before flush start")
	}
}

func TestPFSWriteReadRoundTrip(t *testing.T) {
	p := NewPFS(testMachine())
	data := []byte("persistent bytes")
	end := p.Write("f", data, 0)
	got, ready, ok := p.Read("f", end)
	if !ok {
		t.Fatal("read missed")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if ready <= end {
		t.Fatal("read must cost time")
	}
}

func TestPFSReadWaitsForAvailability(t *testing.T) {
	p := NewPFS(testMachine())
	end := p.Write("f", make([]byte, 1<<26), 5.0)
	// Reader arrives before the flush completes: must wait until end.
	_, ready, ok := p.Read("f", 5.1)
	if !ok {
		t.Fatal("read missed")
	}
	if ready <= end {
		t.Fatalf("ready %v should be after flush end %v", ready, end)
	}
}

func TestPFSReadMissing(t *testing.T) {
	p := NewPFS(testMachine())
	if _, _, ok := p.Read("missing", 0); ok {
		t.Fatal("read of missing file succeeded")
	}
}

func TestPFSConcurrentWritersShareBandwidth(t *testing.T) {
	m := testMachine()
	size := 1 << 24 // 16 MB

	solo := NewPFS(m)
	soloEnd := solo.Write("a", make([]byte, size), 0)

	shared := NewPFS(m)
	// 8 concurrent writers starting at the same virtual time.
	var last float64
	for i := 0; i < 8; i++ {
		end := shared.Write(key(i), make([]byte, size), 0)
		if end > last {
			last = end
		}
	}
	if last <= soloEnd {
		t.Fatalf("8 concurrent writers (%v) not slower than solo (%v)", last, soloEnd)
	}
}

func key(i int) string { return string(rune('a' + i)) }

func TestPFSPerClientCap(t *testing.T) {
	m := testMachine()
	p := NewPFS(m)
	size := 1 << 24
	end := p.Write("a", make([]byte, size), 0)
	minTime := float64(size) / m.PFSPerClientBandwidth
	if end < minTime {
		t.Fatalf("solo write %v faster than per-client cap %v", end, minTime)
	}
}

func TestPFSOverwriteKeepsLatest(t *testing.T) {
	p := NewPFS(testMachine())
	p.Write("f", []byte("v1"), 0)
	end2 := p.Write("f", []byte("v2"), 10)
	got, _, _ := p.Read("f", end2+1)
	if string(got) != "v2" {
		t.Fatalf("read %q, want v2", got)
	}
}

func TestPFSExists(t *testing.T) {
	p := NewPFS(testMachine())
	end := p.Write("f", []byte("x"), 0)
	at, ok := p.Exists("f")
	if !ok || at != end {
		t.Fatalf("Exists = (%v,%v), want (%v,true)", at, ok, end)
	}
	if _, ok := p.Exists("g"); ok {
		t.Fatal("unwritten file exists")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestPFSIsolation(t *testing.T) {
	p := NewPFS(testMachine())
	data := []byte{1, 2, 3}
	end := p.Write("f", data, 0)
	data[0] = 9
	got, _, _ := p.Read("f", end)
	if got[0] != 1 {
		t.Fatal("PFS aliases writer buffer")
	}
}

func TestPFSConcurrencySafety(t *testing.T) {
	p := NewPFS(testMachine())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(g % 8)
				p.Write(k, []byte{byte(i)}, float64(i))
				p.Read(k, float64(i+1))
				p.Exists(k)
			}
		}(g)
	}
	wg.Wait()
}

func TestScratchConcurrencySafety(t *testing.T) {
	n := New(1, testMachine()).Node(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(g % 8)
				n.ScratchWrite(k, []byte{byte(i)})
				n.ScratchRead(k)
				n.CongestedAt(float64(i))
			}
		}(g)
	}
	wg.Wait()
}

func TestPFSRoundTripProperty(t *testing.T) {
	f := func(data []byte, start float64) bool {
		if start < 0 {
			start = -start
		}
		p := NewPFS(testMachine())
		end := p.Write("prop", data, start)
		got, _, ok := p.Read("prop", end)
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushWindowPruning(t *testing.T) {
	c := New(1, testMachine())
	n := c.Node(0)
	n.ScratchWrite("k", make([]byte, 1024))
	// Many flushes far apart in virtual time: list must stay bounded.
	for i := 0; i < 500; i++ {
		if _, err := n.FlushAsyncFor("k", "p", float64(i)*100, NoOwner); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	count := len(n.flushes)
	n.mu.Unlock()
	if count > 128 {
		t.Fatalf("flush windows not pruned: %d retained", count)
	}
}
