package veloc_test

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/veloc"
)

// The VeloC workflow: protect regions, checkpoint (synchronous scratch
// copy + asynchronous flush), clobber, restart.
func Example() {
	machine := sim.DefaultMachine()
	machine.NoiseAmplitude = 0
	cl := cluster.New(1, machine)
	w := mpi.NewWorld(cl, 1, 1, false, 1, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func(p *mpi.Proc) {
		defer wg.Done()
		client, err := veloc.New(p, veloc.Config{Mode: veloc.Single})
		if err != nil {
			fmt.Println(err)
			return
		}
		state := []byte("iteration 42 state")
		client.Protect(0, veloc.SliceRegion{Buf: &state})

		if err := client.Checkpoint("solver", 42); err != nil {
			fmt.Println(err)
			return
		}
		copy(state, "XXXXXXXXXXXXXXXXXX") // simulate lost progress

		v, err := client.LatestVersion("solver")
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := client.Restart("solver", v); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("restored version %d: %s\n", v, state)
	}(w.Proc(0))
	wg.Wait()
	// Output:
	// restored version 42: iteration 42 state
}
