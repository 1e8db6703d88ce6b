package snap

import (
	"math"

	"repro/internal/comm"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// solve runs source iterations until the scalar flux converges; it returns
// the iteration count, final change, and particle-balance residual.
func (s *solver) solve() (iters int, err, balance float64) {
	n := s.n
	s.be.Barrier()
	t0 := n.P.Now()
	planeX := make([]float64, s.ly*s.lz*angles*groups)
	for iters = 1; iters <= s.par.MaxIters; iters++ {
		copy(s.phiOld, s.phi)
		for i := range s.phi {
			s.phi[i] = 0
		}
		s.leak = 0
		var sends []*mpi.Request
		for o := 0; o < 8; o++ {
			zero(planeX) // vacuum at the x sweep entry
			for k := 0; k < s.nchunks; k++ {
				yIn, zIn := s.recvChunk(o, k)
				yOut, zOut := s.sweepChunk(o, k, planeX, yIn, zIn)
				sends = s.sendChunk(o, k, yOut, zOut, sends)
			}
		}
		if s.net == comm.IB {
			s.be.MPI().Waitall(sends)
		}
		// Convergence: global max |φ−φold|.
		local := 0.0
		for i := range s.phi {
			if d := math.Abs(s.phi[i] - s.phiOld[i]); d > local {
				local = d
			}
		}
		n.Flops(float64(len(s.phi)))
		err = s.maxAll(local)
		if s.net == comm.DV {
			// Counters were consumed this iteration; re-arm between the
			// collective's fence and an explicit one so no early
			// next-iteration face can race the re-arm.
			s.armAll()
			s.be.Barrier()
		}
		if err < s.par.Tol {
			break
		}
	}
	s.elapsed = n.P.Now() - t0
	// Particle balance of the converged solution:
	// Source·V = σa·Σφ·V + leakage (summed globally).
	var absorb float64
	for _, p := range s.phi {
		absorb += (sigmaT - sigmaS) * p
	}
	src := source * float64(s.par.NX*s.ly*s.lz*groups)
	gAbs := s.sumAll(absorb)
	gLeak := s.sumAll(s.leak)
	gSrc := s.sumAll(src)
	balance = math.Abs(gSrc-gAbs-gLeak) / gSrc
	return iters, err, balance
}

// maxAll is a global max reduction over whichever stack is active.
func (s *solver) maxAll(v float64) float64 {
	if s.net == comm.DV {
		return s.coll.AllReduceMaxFloat(v)
	}
	return s.be.MPI().Allreduce([]float64{v}, mpi.Max)[0]
}

// sumAll is a global sum reduction.
func (s *solver) sumAll(v float64) float64 {
	if s.net == comm.DV {
		var sum float64
		for _, w := range s.coll.AllGather([]uint64{math.Float64bits(v)}) {
			sum += math.Float64frombits(w)
		}
		return sum
	}
	return s.be.MPI().Allreduce([]float64{v}, mpi.Sum)[0]
}

// chunkTag derives the MPI tag for (octant, chunk, direction).
func (s *solver) chunkTag(o, k, dir int) int {
	return 100 + (o*s.nchunks+k)*2 + dir
}

// recvChunk obtains the upstream faces of one chunk (nil at boundaries).
func (s *solver) recvChunk(o, k int) (yIn, zIn []float64) {
	if s.net == comm.IB {
		c := s.be.MPI()
		if up := s.upstream(o, 0); up >= 0 {
			data, _ := c.Recv(up, s.chunkTag(o, k, 0))
			s.yIn = mpi.Float64sInto(s.yIn, data)
			yIn = s.yIn
		}
		if up := s.upstream(o, 1); up >= 0 {
			data, _ := c.Recv(up, s.chunkTag(o, k, 1))
			s.zIn = mpi.Float64sInto(s.zIn, data)
			zIn = s.zIn
		}
		return
	}
	e := s.be.Endpoint()
	if s.rdprog[o][k] == nil {
		return
	}
	e.WaitGC(s.gc[o][k], sim.Forever)
	upY, upZ := s.upstream(o, 0) >= 0, s.upstream(o, 1) >= 0
	n := 0
	if upY {
		n += s.cyw
	}
	if upZ {
		n += s.czw
	}
	raw := s.raw[:n]
	e.Pull(s.rdprog[o][k], raw)
	vals := make([]float64, n)
	for i, w := range raw {
		vals[i] = math.Float64frombits(w)
	}
	switch {
	case upY && upZ:
		yIn, zIn = vals[:s.cyw], vals[s.cyw:]
	case upY:
		yIn = vals
	case upZ:
		zIn = vals
	}
	return
}

// isend starts the MPI send of one face and appends its request to sends. A
// face stays in flight until the Waitall that ends the iteration, so each
// send of an iteration encodes into a slot of its own, which the same send
// of the next iteration reuses.
func (s *solver) isend(dst, tag int, face []float64, sends []*mpi.Request) []*mpi.Request {
	i := len(sends)
	if i == len(s.wire) {
		s.wire = append(s.wire, nil)
	}
	s.wire[i] = mpi.AppendFloat64s(s.wire[i][:0], face)
	return append(sends, s.be.MPI().Isend(dst, tag, s.wire[i]))
}

// sendChunk forwards one chunk's outgoing faces downstream. The DV port
// pushes both faces with one prepared PCIe transfer (the paper's
// aggregation optimisation).
func (s *solver) sendChunk(o, k int, yOut, zOut []float64, sends []*mpi.Request) []*mpi.Request {
	dy, dz := s.downstream(o, 0), s.downstream(o, 1)
	if s.net == comm.IB {
		if dy >= 0 {
			sends = s.isend(dy, s.chunkTag(o, k, 0), yOut, sends)
		}
		if dz >= 0 {
			sends = s.isend(dz, s.chunkTag(o, k, 1), zOut, sends)
		}
		return sends
	}
	e := s.be.Endpoint()
	if s.prog[o][k] == nil {
		return sends
	}
	w := 0
	if dy >= 0 {
		for _, v := range yOut {
			s.prog[o][k].SetPayload(w, math.Float64bits(v))
			w++
		}
	}
	if dz >= 0 {
		for _, v := range zOut {
			s.prog[o][k].SetPayload(w, math.Float64bits(v))
			w++
		}
	}
	s.n.Compute(sim.BytesAt(w*8, 8e9)) // stage payloads
	e.Trigger(s.prog[o][k])
	return sends
}

// gatherInto copies the local flux into the global array (validation).
func (s *solver) gatherInto(flux []float64) {
	par := s.par
	for g := 0; g < groups; g++ {
		for x := 0; x < par.NX; x++ {
			for y := 0; y < s.ly; y++ {
				for z := 0; z < s.lz; z++ {
					flux[((g*par.NX+x)*par.NY+s.y0+y)*par.NZ+s.z0+z] = s.phi[s.idx(g, x, y, z)]
				}
			}
		}
	}
}
