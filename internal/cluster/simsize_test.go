package cluster

import "testing"

func TestScratchWriteSizedChargesSimSize(t *testing.T) {
	m := testMachine()
	n := New(1, m).Node(0)
	small := n.ScratchWrite("a", make([]byte, 64))
	big := n.ScratchWriteSized("b", make([]byte, 64), 1<<30)
	if big <= small {
		t.Fatalf("sized write cost %v not above unsized %v", big, small)
	}
	want := m.MemcpyTime(1 << 30)
	if big != want {
		t.Fatalf("sized write cost %v, want %v", big, want)
	}
	// Read cost follows the simulated size too.
	_, rc, ok := n.ScratchRead("b")
	if !ok || rc != want {
		t.Fatalf("sized read cost %v, want %v", rc, want)
	}
	// Contents stay the real 64 bytes.
	data, _, _ := n.ScratchRead("b")
	if len(data) != 64 {
		t.Fatalf("stored %d real bytes", len(data))
	}
}

func TestPFSWriteSizedChargesSimSize(t *testing.T) {
	m := testMachine()
	p := NewPFS(m)
	endSmall := p.Write("a", make([]byte, 64), 0)
	endBig := p.WriteSizedFor("b", make([]byte, 64), 0, 1<<30, NoOwner)
	if endBig <= endSmall {
		t.Fatalf("sized flush end %v not after unsized %v", endBig, endSmall)
	}
	// Read cost follows the simulated size.
	_, readySmall, _ := p.Read("a", endBig)
	_, readyBig, _ := p.Read("b", endBig)
	if readyBig-endBig <= readySmall-endBig {
		t.Fatal("sized read not slower")
	}
}

func TestFlushAsyncUsesSimSize(t *testing.T) {
	m := testMachine()
	c := New(1, m)
	n := c.Node(0)
	n.ScratchWriteSized("k", make([]byte, 64), 1<<30) // 1 GB simulated
	end, err := n.FlushAsyncFor("k", "pfs/k", 0, NoOwner)
	if err != nil {
		t.Fatal(err)
	}
	minTime := float64(1<<30) / m.PFSPerClientBandwidth
	if end < minTime {
		t.Fatalf("flush of 1GB simulated completed in %v, want >= %v", end, minTime)
	}
}

func TestStorageAccounting(t *testing.T) {
	p := New(2, testMachine()).PFS()
	p.WriteSizedFor("x", make([]byte, 8), 0, 500, NoOwner)
	p.WriteSizedFor("y", make([]byte, 8), 0, 700, NoOwner)
	if got := p.SimBytes(); got != 1200 {
		t.Fatalf("PFS SimBytes = %d", got)
	}
	// A later rewrite replaces the file's footprint instead of adding to it.
	p.WriteSizedFor("x", make([]byte, 8), 100, 300, NoOwner)
	if got := p.SimBytes(); got != 1000 {
		t.Fatalf("after rewrite = %d", got)
	}
}
