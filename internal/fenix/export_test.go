package fenix

import "repro/internal/mpi"

// SpareCount returns the number of unused spares remaining in p's job (0
// before Fenix runs on it).
func SpareCount(p *mpi.Proc) int {
	rt, ok := p.World().Layer(nil).(*runtime)
	if !ok {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.spares)
}
