package gb

import (
	"runtime"

	"gbpolar/internal/simmpi"
)

// This file implements the extension the paper's conclusion proposes:
// "we are planning to incorporate explicit dynamic load balancing
// techniques ... to improve the performance even further" — explicit
// dynamic load balancing ACROSS ranks, on top of the within-rank work
// stealing. Rank 0 acts as a coordinator serving guided-self-scheduling
// chunks of leaf work to the compute ranks on demand, so ranks that drew
// cheap leaves ask for more instead of idling at the phase barrier.
//
// RunSpec{Scheme: Dynamic} selects it: reduceLeaves hands the integral
// and energy phases' node-division leaves out through coordinate and
// drainChunks instead of the static share. One rank is sacrificed to
// coordination (P ≥ 2); the cheap, uniform radii pass keeps static
// segments over the P−1 compute ranks (rankRun.share).

// chunk-protocol message layout: a worker sends {workerRank}; the
// coordinator answers {lo, hi} (hi ≤ lo means "phase drained").

// grantSize is the guided self-scheduling rule: a quarter of the
// remaining leaves per worker, at least one. A phase's chunk bounds thus
// depend only on the leaf and worker counts, not on request arrival.
func grantSize(remaining, workers int) int {
	return max(remaining/(4*workers), 1)
}

// coordinator serves chunks of [0, total) to ranks 1..P−1 (grantSize)
// and returns when every worker has been told the phase is drained.
// Workers that die mid-phase are counted as drained so the coordinator
// cannot spin forever waiting for their requests.
func coordinate(c *simmpi.Comm, total int) error {
	workers := c.Size() - 1
	next := 0
	done := 0
	drained := make([]bool, c.Size())
	for done < workers {
		served := false
		for from := 1; from < c.Size(); from++ {
			if drained[from] {
				continue
			}
			if !c.Alive(from) {
				drained[from] = true
				done++
				served = true
				continue
			}
			if _, ok := c.TryRecv(from); !ok {
				continue
			}
			served = true
			if next >= total {
				//lint:ignore hotalloc two-word control message per protocol turn; Send copies it immediately
				if err := c.Send(from, []float64{0, 0}); err != nil { // drained
					return err
				}
				drained[from] = true
				done++
				continue
			}
			lo, hi := next, min(next+grantSize(total-next, workers), total)
			next = hi
			//lint:ignore hotalloc two-word control message per protocol turn; Send copies it immediately
			if err := c.Send(from, []float64{float64(lo), float64(hi)}); err != nil {
				return err
			}
		}
		if !served {
			runtime.Gosched()
		}
	}
	return nil
}

// drainChunks pulls chunks from the coordinator and invokes fn on each
// until the phase is drained.
func drainChunks(c *simmpi.Comm, fn func(lo, hi int)) error {
	for {
		//lint:ignore hotalloc one-word control message per protocol turn; Send copies it immediately
		if err := c.Send(0, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		resp, err := c.Recv(0)
		if err != nil {
			return err
		}
		lo, hi := int(resp[0]), int(resp[1])
		if hi <= lo {
			return nil
		}
		// Yield before computing: when ranks outnumber cores, the rank the
		// coordinator just woke would otherwise keep the core it inherited
		// and drain most chunks, so per-rank work would follow goroutine
		// scheduling rather than demand.
		runtime.Gosched()
		fn(lo, hi)
	}
}
