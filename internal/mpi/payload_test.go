package mpi_test

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/apps/heatdis"
	"repro/internal/apps/minimd"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// payloadID identifies one payload slice by its first byte and length.
type payloadID struct {
	first *byte
	n     int
}

// payloadCRCs records the CRC of every payload at its first sighting (its
// send) and checks it again at every later one. Keeping the slice itself
// pins its memory, so no later allocation can reuse the address.
type payloadCRCs struct {
	mu   sync.Mutex
	seen map[payloadID]sentPayload
	bad  []string
}

type sentPayload struct {
	data []byte
	crc  uint32
}

func (w *payloadCRCs) see(b []byte) {
	if len(b) == 0 {
		return
	}
	id, crc := payloadID{&b[0], len(b)}, crc32.ChecksumIEEE(b)
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.seen[id]
	if !ok {
		w.seen[id] = sentPayload{b, crc}
		return
	}
	if s.crc != crc {
		w.bad = append(w.bad, fmt.Sprintf("%d-byte payload changed after send: crc %08x, then %08x", len(b), s.crc, crc))
		w.seen[id] = sentPayload{b, crc}
	}
}

// TestPayloadImmutable pins the one-payload contract: the slice a sender
// posts is the message, shared by the mailbox, the message log, log
// replays and the receiver, so nobody may write it after the send. Every
// payload's CRC is recorded at send and must match at every consumption
// (mailbox and log replay) and, at job end, for every payload the job
// sent, which covers every entry the message log still holds.
func TestPayloadImmutable(t *testing.T) {
	quiet := sim.DefaultMachine()
	quiet.NoiseAmplitude = 0
	hd := heatdis.Config{BytesPerRank: 1 << 20, Iterations: 30, CheckpointInterval: 10, ActualRows: 8, ActualCols: 16}
	hd2 := heatdis.Config2D{BytesPerRank: 1 << 20, Iterations: 30, CheckpointInterval: 10, GlobalRows: 16, GlobalCols: 16}
	md := minimd.Config{Size: 50, Steps: 30, CheckpointInterval: 10, NeighborEvery: 10, ActualCells: 3}
	kill := func() []*core.FailurePlan { return []*core.FailurePlan{{Slot: 1, Iteration: 15}} }
	cases := []struct {
		name   string
		strat  core.Strategy
		spares int
		fails  []*core.FailurePlan
		app    core.App
	}{
		{"heatdis", core.StrategyNone, 0, nil, heatdis.App(hd, heatdis.NewSink())},
		{"heatdis2d", core.StrategyNone, 0, nil, heatdis.App2D(hd2, heatdis.NewSink())},
		{"minimd", core.StrategyNone, 0, nil, minimd.App(md, minimd.NewSink())},
		{"heatdis-localized-kill", core.StrategyLocalized, 1, kill(), heatdis.App(hd, heatdis.NewSink())},
		{"heatdis-fenix-imr-kill", core.StrategyFenixIMR, 2, kill(), heatdis.App(hd, heatdis.NewSink())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &payloadCRCs{seen: make(map[payloadID]sentPayload)}
			stop := mpi.WatchPayloads(w.see)
			rec := obs.New()
			res := core.Run(mpi.JobConfig{Ranks: 4 + tc.spares, Machine: quiet, Seed: 3, Obs: rec},
				core.Config{Strategy: tc.strat, Spares: tc.spares, CheckpointInterval: 10, CheckpointName: tc.name, Failures: tc.fails},
				tc.app)
			stop()
			if res.Failed || res.Err() != nil {
				t.Fatalf("run failed: %v", res.Err())
			}
			for _, f := range tc.fails {
				if !f.Fired() {
					t.Fatal("the kill never fired")
				}
			}
			if tc.strat == core.StrategyLocalized && rec.Registry().CounterValue(obs.MMsgReplayed) == 0 {
				t.Fatal("no payload was served from the message log")
			}
			for _, s := range w.seen {
				w.see(s.data)
			}
			if len(w.seen) == 0 {
				t.Fatal("no payload was sent")
			}
			for i, msg := range w.bad {
				if i == 5 {
					t.Errorf("... %d violations in all", len(w.bad))
					break
				}
				t.Error(msg)
			}
		})
	}
}
