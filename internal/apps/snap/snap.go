// Package snap implements the SN (Discrete Ordinates) Application Proxy of
// §VII: a 3-D neutron-transport sweep mimicking PARTISN's computational
// pattern. The spatial mesh is decomposed KBA-style over a 2-D (y,z)
// process grid; every source iteration sweeps the mesh along all eight
// octants of the angular domain with diamond-difference updates. The sweep
// is pipelined in x-chunks, so each octant generates a wavefront of many
// small face messages — the communication pattern SNAP is known for.
//
// The MPI variant exchanges upstream/downstream chunk faces with
// point-to-point messages. The Data Vortex variant is the paper's
// "best-effort" port: MPI calls replaced by counted DV Memory writes, plus
// the one optimisation the paper describes — aggregating each chunk's two
// outgoing faces into a single PCIe transfer through the persistent DMA
// table. It is deliberately not restructured further, which is why its
// speedup (~1.19x in Figure 9) is modest.
package snap

import (
	"fmt"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dv"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Angles per octant and energy groups.
const (
	angles int = 4
	groups int = 2
)

// Physics: total and scattering cross sections, uniform source.
const (
	sigmaT float64 = 1.0
	sigmaS float64 = 0.5
	source float64 = 1.0
)

// Params configures a run.
type Params struct {
	Nodes int
	NX    int // global cells in x (the swept, pipelined dimension)
	NY    int // global cells in y
	NZ    int // global cells in z
	// ChunkX is the KBA pipeline chunk length along x.
	ChunkX   int
	MaxIters int
	Tol      float64
	Seed     uint64
	// KeepFlux gathers the converged scalar flux for validation.
	KeepFlux bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.NX == 0 {
		p.NX = 16
	}
	if p.NY == 0 {
		p.NY = 16
	}
	if p.NZ == 0 {
		p.NZ = 16
	}
	if p.ChunkX == 0 {
		p.ChunkX = 4
	}
	if p.MaxIters == 0 {
		p.MaxIters = 12
	}
	if p.Tol == 0 {
		p.Tol = 1e-6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one measurement.
type Result struct {
	Net     comm.Net
	Nodes   int
	Iters   int
	Err     float64 // final iteration change
	Elapsed sim.Time
	// Balance is the relative particle-balance residual
	// |source − absorption − leakage| / source of the converged solution.
	Balance float64
	// Flux is the gathered scalar flux (group-major) when KeepFlux is set.
	Flux []float64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// quadrature returns the per-octant angle cosines and weights (all
// positive; octants supply the signs). Weights sum to 1/8 per octant.
func quadrature(nAngles int) (mu, eta, xi, wt []float64) {
	base := [][3]float64{
		{0.350021, 0.350021, 0.868890},
		{0.350021, 0.868890, 0.350021},
		{0.868890, 0.350021, 0.350021},
		{0.577350, 0.577350, 0.577350},
	}
	for a := 0; a < nAngles; a++ {
		b := base[a%len(base)]
		mu = append(mu, b[0])
		eta = append(eta, b[1])
		xi = append(xi, b[2])
		wt = append(wt, 1.0/8.0/float64(nAngles))
	}
	return
}

// DecomposeYZ factors nodes into the (py, pz) process grid.
func DecomposeYZ(nodes int) (py, pz int) {
	py, pz = 1, 1
	n := nodes
	turn := 0
	for f := 2; n > 1; {
		if n%f == 0 {
			if turn%2 == 0 {
				py *= f
			} else {
				pz *= f
			}
			n /= f
			turn++
		} else {
			f++
		}
	}
	return
}

// octant directions: sx flips the x pipeline; (sy, sz) set the wavefront
// direction across the process grid.
var octants = [8][3]int{
	{1, 1, 1}, {-1, 1, 1}, {1, -1, 1}, {-1, -1, 1},
	{1, 1, -1}, {-1, 1, -1}, {1, -1, -1}, {-1, -1, -1},
}

// sizeErr reports why the mesh cannot be split over par.Nodes or pipelined in
// ChunkX chunks (nil when it can). Run panics with it; the registered runner
// returns it.
func (par Params) sizeErr() error {
	par.defaults()
	py, pz := DecomposeYZ(par.Nodes)
	if par.NY%py != 0 || par.NZ%pz != 0 {
		return fmt.Errorf("snap: %d×%d mesh not divisible by %d×%d grid", par.NY, par.NZ, py, pz)
	}
	if par.NX%par.ChunkX != 0 {
		return fmt.Errorf("snap: NX=%d not divisible by chunk %d", par.NX, par.ChunkX)
	}
	if n := par.NX / par.ChunkX; 8*n > 56 {
		return fmt.Errorf("snap: %d chunks need %d group counters (max 56)", n, 8*n)
	}
	return nil
}

// Run executes the solver.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	py, pz := DecomposeYZ(par.Nodes)
	res := Result{Net: net, Nodes: par.Nodes}
	if par.KeepFlux {
		res.Flux = make([]float64, groups*par.NX*par.NY*par.NZ)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		s := newSolver(n, be, net, par, py, pz)
		iters, err, bal := s.solve()
		if n.ID == 0 {
			res.Iters, res.Err, res.Balance = iters, err, bal
		}
		if par.KeepFlux {
			s.gatherInto(res.Flux)
		}
		return s.elapsed
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	return res
}

// solver is one node's state.
type solver struct {
	n      *cluster.Node
	be     comm.Backend
	net    comm.Net
	par    Params
	py, pz int
	cy, cz int // process coordinates
	ly, lz int // local cells in y and z
	y0, z0 int

	mu, eta, xi, wt []float64

	phi, phiOld []float64 // scalar flux [g][x][y][z] local
	leak        float64   // outgoing boundary leakage accumulator

	nchunks  int
	cyw, czw int // chunk face words (y-crossing, z-crossing)

	elapsed sim.Time

	// MPI scratch: the encoded faces of one iteration's sends (see isend)
	// and the two upstream faces of the chunk being swept.
	wire     [][]byte
	yIn, zIn []float64

	// Data Vortex state: per octant, one region holding nchunks slots of
	// [y-face | z-face]; one group counter, send program, and read program
	// per (octant, chunk).
	region [8]uint32
	gc     [8][]int
	prog   [8][]*vic.DMAProgram
	rdprog [8][]*vic.ReadProgram
	raw    []uint64 // one chunk's pulled faces, one row for every chunk
	coll   *dv.Collective
}

func newSolver(n *cluster.Node, be comm.Backend, net comm.Net, par Params, py, pz int) *solver {
	s := &solver{n: n, be: be, net: net, par: par, py: py, pz: pz}
	s.cy = n.ID / pz
	s.cz = n.ID % pz
	s.ly = par.NY / py
	s.lz = par.NZ / pz
	s.y0 = s.cy * s.ly
	s.z0 = s.cz * s.lz
	s.mu, s.eta, s.xi, s.wt = quadrature(angles)
	s.nchunks = par.NX / par.ChunkX
	s.cyw = par.ChunkX * s.lz * angles * groups
	s.czw = par.ChunkX * s.ly * angles * groups
	cells := par.NX * s.ly * s.lz
	s.phi = make([]float64, groups*cells)
	s.phiOld = make([]float64, groups*cells)
	if net == comm.DV {
		s.setupDV()
	}
	return s
}

func (s *solver) setupDV() {
	e := s.be.Endpoint()
	slot := s.cyw + s.czw
	s.raw = make([]uint64, slot)
	for o := 0; o < 8; o++ {
		s.region[o] = e.Alloc(s.nchunks * slot)
		s.gc[o] = make([]int, s.nchunks)
		s.prog[o] = make([]*vic.DMAProgram, s.nchunks)
		s.rdprog[o] = make([]*vic.ReadProgram, s.nchunks)
		dy, dz := s.downstream(o, 0), s.downstream(o, 1)
		upY, upZ := s.upstream(o, 0) >= 0, s.upstream(o, 1) >= 0
		for k := 0; k < s.nchunks; k++ {
			s.gc[o][k] = e.AllocGC()
			base := s.region[o] + uint32(k*slot)
			var tmpl []vic.Word
			if dy >= 0 {
				for i := 0; i < s.cyw; i++ {
					tmpl = append(tmpl, vic.Word{Dst: dy, Op: vic.OpWrite,
						GC: s.gc[o][k], Addr: base + uint32(i)})
				}
			}
			if dz >= 0 {
				for i := 0; i < s.czw; i++ {
					tmpl = append(tmpl, vic.Word{Dst: dz, Op: vic.OpWrite,
						GC: s.gc[o][k], Addr: base + uint32(s.cyw+i)})
				}
			}
			if len(tmpl) > 0 {
				s.prog[o][k] = e.NewProgram(tmpl)
			}
			switch {
			case upY && upZ:
				s.rdprog[o][k] = e.NewReadProgram(base, s.cyw+s.czw)
			case upY:
				s.rdprog[o][k] = e.NewReadProgram(base, s.cyw)
			case upZ:
				s.rdprog[o][k] = e.NewReadProgram(base+uint32(s.cyw), s.czw)
			}
		}
	}
	s.armAll()
	s.coll = dv.NewCollective(e, 1)
	e.Barrier()
}

// upstream returns the rank the octant's flux arrives from across dir
// (0 = y, 1 = z), or -1 at the domain boundary.
func (s *solver) upstream(o, dir int) int {
	sy, sz := octants[o][1], octants[o][2]
	if dir == 0 {
		uy := s.cy - sy
		if uy < 0 || uy >= s.py {
			return -1
		}
		return uy*s.pz + s.cz
	}
	uz := s.cz - sz
	if uz < 0 || uz >= s.pz {
		return -1
	}
	return s.cy*s.pz + uz
}

// downstream returns the rank the octant's flux continues to across dir.
func (s *solver) downstream(o, dir int) int {
	sy, sz := octants[o][1], octants[o][2]
	if dir == 0 {
		dy := s.cy + sy
		if dy < 0 || dy >= s.py {
			return -1
		}
		return dy*s.pz + s.cz
	}
	dz := s.cz + sz
	if dz < 0 || dz >= s.pz {
		return -1
	}
	return s.cy*s.pz + dz
}

// armAll pre-arms every (octant, chunk) counter with the expected words.
func (s *solver) armAll() {
	e := s.be.Endpoint()
	for o := 0; o < 8; o++ {
		exp := int64(0)
		if s.upstream(o, 0) >= 0 {
			exp += int64(s.cyw)
		}
		if s.upstream(o, 1) >= 0 {
			exp += int64(s.czw)
		}
		for k := 0; k < s.nchunks; k++ {
			e.ArmGC(s.gc[o][k], exp)
		}
	}
}

func (s *solver) idx(g, x, y, z int) int {
	return ((g*s.par.NX+x)*s.ly+y)*s.lz + z
}

// absX maps (octant, chunk, in-chunk position) to the absolute x cell.
func (s *solver) absX(o, k, xi int) int {
	pos := k*s.par.ChunkX + xi
	if octants[o][0] > 0 {
		return pos
	}
	return s.par.NX - 1 - pos
}

// sweepChunk performs the diamond-difference sweep of one x-chunk. planeX
// carries the x-incoming flux across chunks; yIn/zIn are the chunk's
// incoming faces in sweep order (nil = vacuum boundary); the outgoing faces
// are returned in the same layout.
func (s *solver) sweepChunk(o, k int, planeX, yIn, zIn []float64) (yOut, zOut []float64) {
	par := s.par
	sx, sy, sz := octants[o][0], octants[o][1], octants[o][2]
	A, G := angles, groups
	yOut = make([]float64, s.cyw)
	zOut = make([]float64, s.czw)
	yBuf := make([]float64, s.lz*A*G)
	zBuf := make([]float64, A*G)
	ys, ye, dy := 0, s.ly, 1
	if sy < 0 {
		ys, ye, dy = s.ly-1, -1, -1
	}
	zs, ze, dz := 0, s.lz, 1
	if sz < 0 {
		zs, ze, dz = s.lz-1, -1, -1
	}
	den := make([]float64, A)
	for a := 0; a < A; a++ {
		den[a] = 2*s.mu[a] + 2*s.eta[a] + 2*s.xi[a] // Δ=1 cell size
	}
	for xi := 0; xi < par.ChunkX; xi++ {
		x := s.absX(o, k, xi)
		if yIn != nil {
			copy(yBuf, yIn[xi*s.lz*A*G:(xi+1)*s.lz*A*G])
		} else {
			zero(yBuf)
		}
		for y := ys; y != ye; y += dy {
			if zIn != nil {
				copy(zBuf, zIn[(xi*s.ly+y)*A*G:(xi*s.ly+y+1)*A*G])
			} else {
				zero(zBuf)
			}
			for z := zs; z != ze; z += dz {
				for a := 0; a < A; a++ {
					for g := 0; g < G; g++ {
						ag := a*G + g
						inx := planeX[(y*s.lz+z)*A*G+ag]
						iny := yBuf[z*A*G+ag]
						inz := zBuf[ag]
						src := source + sigmaS*s.phiOld[s.idx(g, x, y, z)]
						psi := (src + 2*s.mu[a]*inx + 2*s.eta[a]*iny + 2*s.xi[a]*inz) /
							(sigmaT + den[a])
						outx := 2*psi - inx
						outy := 2*psi - iny
						outz := 2*psi - inz
						planeX[(y*s.lz+z)*A*G+ag] = outx
						yBuf[z*A*G+ag] = outy
						zBuf[ag] = outz
						s.phi[s.idx(g, x, y, z)] += s.wt[a] * psi
						// Leakage out of the global domain in x.
						if (sx > 0 && x == par.NX-1) || (sx < 0 && x == 0) {
							s.leak += s.wt[a] * s.mu[a] * outx
						}
					}
				}
				if (dz > 0 && z == s.lz-1) || (dz < 0 && z == 0) {
					copy(zOut[(xi*s.ly+y)*A*G:(xi*s.ly+y+1)*A*G], zBuf)
				}
			}
			if (dy > 0 && y == s.ly-1) || (dy < 0 && y == 0) {
				copy(yOut[xi*s.lz*A*G:(xi+1)*s.lz*A*G], yBuf)
			}
		}
	}
	// Leakage through global y/z boundaries.
	if s.downstream(o, 0) < 0 {
		for i, v := range yOut {
			a := (i % (angles * groups)) / groups
			s.leak += s.wt[a] * s.eta[a] * v
		}
	}
	if s.downstream(o, 1) < 0 {
		for i, v := range zOut {
			a := (i % (angles * groups)) / groups
			s.leak += s.wt[a] * s.xi[a] * v
		}
	}
	s.n.Flops(16 * float64(par.ChunkX*s.ly*s.lz*A*G))
	return yOut, zOut
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
