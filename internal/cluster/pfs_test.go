package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
)

// linearPFS is the reference congestion model: every recorded write window
// in arrival order, counted by a full scan and pruned by a full filter once
// more than 4096 are held. PFS.write must reproduce its completion times
// bit for bit.
type linearPFS struct {
	machine *sim.Machine
	active  []window
	trimmed int // windows dropped by the retention rule
}

func (r *linearPFS) write(start float64, simBytes, share int) (end float64) {
	concurrent := share
	if concurrent <= 0 {
		concurrent = 1
		for _, w := range r.active {
			if w.end > start {
				concurrent++
			}
		}
	}
	bw := r.machine.PFSAggregateBandwidth / float64(concurrent)
	if bw > r.machine.PFSPerClientBandwidth {
		bw = r.machine.PFSPerClientBandwidth
	}
	end = start + r.machine.PFSLatency + float64(simBytes)/bw
	r.active = append(r.active, window{start: start, end: end})
	if len(r.active) > 4096 {
		kept := r.active[:0]
		for _, w := range r.active {
			if w.end > start-1.0 {
				kept = append(kept, w)
			}
		}
		r.trimmed += len(r.active) - len(kept)
		r.active = kept
	}
	return end
}

// pfsOp is one write of a randomized history.
type pfsOp struct {
	start           float64
	simBytes, share int
}

// randomHistory returns rounds×perRound writes in shuffled wall-arrival
// order: each round's writes start near its own virtual instant (a quarter
// of them tied exactly on it), arrivals are shuffled across pairs of
// rounds, and a few stragglers start seconds behind. Sizes mix
// metadata-sized and flush-sized writes; one write in eight carries an
// explicit share.
func randomHistory(seed int64, rounds, perRound int) []pfsOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]pfsOp, 0, rounds*perRound)
	for r := 0; r < rounds; r++ {
		base := 0.25 * float64(r)
		for i := 0; i < perRound; i++ {
			op := pfsOp{start: base}
			switch rng.Intn(4) {
			case 0: // virtually tied on the round's instant
			case 1:
				op.start -= 3 * rng.Float64() // straggler
				if op.start < 0 {
					op.start = 0
				}
			default:
				op.start += 0.2 * rng.Float64()
			}
			if rng.Intn(2) == 0 {
				op.simBytes = 256 + rng.Intn(4096)
			} else {
				op.simBytes = 64<<10 + rng.Intn(1<<20)
			}
			if rng.Intn(8) == 0 {
				op.share = 1 + rng.Intn(64)
			}
			ops = append(ops, op)
		}
	}
	for lo := 0; lo < len(ops); lo += 2 * perRound {
		hi := min(lo+2*perRound, len(ops))
		rng.Shuffle(hi-lo, func(i, j int) { ops[lo+i], ops[lo+j] = ops[lo+j], ops[lo+i] })
	}
	return ops
}

func TestPFSWriteMatchesLinearReference(t *testing.T) {
	ops := randomHistory(1, 20, 1024)
	ref := &linearPFS{machine: testMachine()}
	p := NewPFS(testMachine())
	maxLive := 0
	var ends []float64
	for i, op := range ops {
		// Every eighth write starts exactly where a recent one ended (a
		// back-to-back flush), every sixteenth one second later (on the
		// retention horizon), so both comparisons see exact ties.
		if i%8 == 7 {
			op.start = ends[len(ends)-1-(i/8)%min(len(ends), 64)]
			if i%16 == 15 {
				op.start += 1.0
			}
		}
		want := ref.write(op.start, op.simBytes, op.share)
		ends = append(ends, want)
		got := p.write("k", nil, op.start, op.simBytes, NoOwner, op.share)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("write %d (%+v): end %v, reference %v", i, op, got, want)
		}
		maxLive = max(maxLive, len(ref.active))
	}
	if maxLive <= 4096 || ref.trimmed == 0 {
		t.Fatalf("history never exercised retention (max live %d, trimmed %d)", maxLive, ref.trimmed)
	}
	refEnds := make([]float64, len(ref.active))
	for i, w := range ref.active {
		refEnds[i] = w.end
	}
	slices.Sort(refEnds)
	if !slices.Equal(refEnds, p.ends) {
		t.Fatalf("retained completion times differ: %d kept, reference %d", len(p.ends), len(refEnds))
	}
}

func TestPFSWriteCopiesCallerBuffer(t *testing.T) {
	writes := map[string]func(p *PFS, data []byte) float64{
		"Write":          func(p *PFS, d []byte) float64 { return p.Write("f", d, 0) },
		"WriteSized":     func(p *PFS, d []byte) float64 { return p.WriteSized("f", d, 0, 1<<20) },
		"WriteSizedFor":  func(p *PFS, d []byte) float64 { return p.WriteSizedFor("f", d, 0, 1<<20, 3) },
		"WriteSharedFor": func(p *PFS, d []byte) float64 { return p.WriteSharedFor("f", d, 0, 1<<20, 3, 8) },
	}
	for name, write := range writes {
		p := NewPFS(testMachine())
		data := []byte{1, 2, 3}
		end := write(p, data)
		data[0] = 9
		got, _, ok := p.Read("f", end)
		if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("%s: read %v after caller mutation, want [1 2 3]", name, got)
		}
		got[1] = 9
		again, _, _ := p.Read("f", end)
		if !bytes.Equal(again, []byte{1, 2, 3}) {
			t.Fatalf("%s: read %v after mutating an earlier read, want [1 2 3]", name, again)
		}
	}
}

func TestFlushedBlobSurvivesScratchChanges(t *testing.T) {
	want := []byte("checkpoint v1")
	check := func(t *testing.T, n *Node, end float64) {
		t.Helper()
		n.ScratchWrite("ck", []byte("checkpoint v2"))
		n.ScratchDelete("ck")
		n.ScratchClear()
		got, _, ok := n.pfs.Read("pfs/ck", end)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("PFS copy = %q ok=%v after scratch overwrite/delete, want %q", got, ok, want)
		}
	}
	t.Run("async", func(t *testing.T) {
		n := New(1, testMachine()).Node(0)
		n.ScratchWrite("ck", want)
		end, err := n.FlushAsync("ck", "pfs/ck", 0)
		if err != nil {
			t.Fatal(err)
		}
		check(t, n, end)
	})
	t.Run("scheduled", func(t *testing.T) {
		n := New(1, testMachine()).Node(0)
		n.SetFlushPolicy(FlushPolicy{Window: 1})
		n.ScratchWrite("ck", want)
		req := FlushRequest{Key: "ck", PFSKey: "pfs/ck", Owner: NoOwner}
		if _, _, _, err := n.FlushSubmit(req, 0); err != nil {
			t.Fatal(err)
		}
		n.AdvanceFlushes(1)
		end, ok := n.pfs.Exists("pfs/ck")
		if !ok {
			t.Fatal("scheduled flush did not commit")
		}
		check(t, n, end)
	})
}

// TestFlushDoesNotCopyScratchBlob checks that a flush hands the immutable
// scratch blob to the PFS instead of copying it: testing.AllocsPerRun
// counts objects, so the bytes are measured the same way from TotalAlloc.
func TestFlushDoesNotCopyScratchBlob(t *testing.T) {
	const size = 1 << 20
	n := New(1, testMachine()).Node(0)
	n.ScratchWrite("ck", make([]byte, size))
	start := 0.0
	flush := func() {
		start += 10
		if _, err := n.FlushAsync("ck", "pfs/ck", start); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, flush); allocs > 2 {
		t.Fatalf("flush allocates %v objects per run, want <= 2", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		flush()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= size {
		t.Fatalf("flushing a %d-byte scratch entry allocates %d bytes per run", size, perRun)
	}
}

// BenchmarkPFSWriteHistory replays 60 rounds of 1024 writes (the shape of
// a wide job checkpointing every round, see randomHistory) through the PFS
// and through the linear-scan reference.
// The sorted model's cost per write stays flat as the history grows.
func BenchmarkPFSWriteHistory(b *testing.B) {
	ops := randomHistory(42, 60, 1024)
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewPFS(testMachine())
			for _, op := range ops {
				p.write("k", nil, op.start, op.simBytes, NoOwner, op.share)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/write")
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref := &linearPFS{machine: testMachine()}
			for _, op := range ops {
				ref.write(op.start, op.simBytes, op.share)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/write")
	})
}
