package mpi_test

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A minimal MPI program: 4 ranks allreduce their ranks and rank 0 reports.
func Example() {
	machine := sim.DefaultMachine()
	machine.NoiseAmplitude = 0
	res := mpi.RunJob(mpi.JobConfig{Ranks: 4, Machine: machine, Seed: 1}, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		sum, err := comm.AllreduceInt(p, p.Rank(), mpi.OpSum)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			fmt.Println("sum of ranks:", sum)
		}
		return nil
	})
	fmt.Println("failed:", res.Failed)
	// Output:
	// sum of ranks: 6
	// failed: false
}

// ULFM semantics: a failure surfaces as an error at the surviving ranks,
// which revoke the communicator and continue on one built over the
// survivors — the way Fenix substitutes its repaired communicator.
func ExampleWorld_NewComm() {
	machine := sim.DefaultMachine()
	machine.NoiseAmplitude = 0
	cl := cluster.New(3, machine)
	w := mpi.NewWorld(cl, 3, 1, false, 1, 0)
	c := w.CommWorld()
	survivors := w.NewComm([]int{0, 2})

	var mu sync.Mutex
	var ranks []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(p *mpi.Proc) {
			defer wg.Done()
			defer func() { recover() }() // absorb the injected exit
			if p.Rank() == 1 {
				p.Exit() // simulate a process failure
			}
			if err := c.Barrier(p); mpi.IsProcessFailure(err) {
				c.Revoke(p)
				if err := survivors.Barrier(p); err != nil {
					return
				}
				mu.Lock()
				ranks = append(ranks, survivors.Rank(p))
				mu.Unlock()
			}
		}(w.Proc(i))
	}
	wg.Wait()
	sort.Ints(ranks)
	fmt.Println("survivor ranks in the new comm:", ranks)
	// Output:
	// survivor ranks in the new comm: [0 1]
}
