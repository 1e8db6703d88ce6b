// Package heat implements the paper's heat-equation application (§VII):
// an explicit (FTCS) finite-difference solver for the 3-D heat equation on
// the unit cube with Dirichlet boundaries, domain-decomposed in all three
// dimensions, exchanging six halo faces per step — "a large number of small
// messages sent over the network".
//
// The MPI variant posts non-blocking sends/receives per face. The Data
// Vortex variant is restructured per the paper: all six outgoing faces leave
// in one source-aggregated DMA scatter straight into the neighbours' DV
// Memory, arrivals are counted by one pre-armed group counter per step
// parity, and the incoming halo is pulled with a single DMA read.
package heat

import (
	"fmt"
	"math"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Params configures a run.
type Params struct {
	Nodes int
	N     int // global interior grid points per dimension
	Steps int
	K     float64 // stability number dt/h² at diffusivity α = 1 (must be < 1/6)
	Seed  uint64
	// KeepField gathers the final field for validation.
	KeepField bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform

	// Reliable routes the DV halo exchange through the reliable-delivery
	// layer, keeping the answer exact under packet loss.
	Reliable bool
	// WaitTimeout, when > 0, bounds the unprotected DV variant's group-
	// counter waits so a lossy run terminates (with a wrong answer that
	// MaxErr exposes) instead of hanging.
	WaitTimeout sim.Time
}

func (p *Params) defaults() {
	if p.N == 0 {
		p.N = 32
	}
	if p.Steps == 0 {
		p.Steps = 20
	}
	if p.K == 0 {
		p.K = 0.1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one measurement.
type Result struct {
	Net     comm.Net
	Nodes   int
	N       int
	Steps   int
	Elapsed sim.Time
	// Field is the gathered final field (x-major, N³ values) when
	// KeepField was set.
	Field []float64

	// Timeouts counts halo waits that gave up (unprotected path under loss).
	Timeouts int64
	// Errors counts reliable-path operations that exhausted the retry budget.
	Errors int
	// Report is the cluster run report (fault and reliability telemetry).
	Report *cluster.Report
}

// Decompose factors nodes into a 3-D grid (px ≥ py ≥ pz, as balanced as
// possible).
func Decompose(nodes int) (px, py, pz int) {
	px, py, pz = 1, 1, 1
	dims := [3]*int{&px, &py, &pz}
	n := nodes
	d := 0
	for f := 2; n > 1; {
		if n%f == 0 {
			*dims[d%3] *= f
			n /= f
			d++
		} else {
			f++
		}
	}
	return
}

// exact returns the discrete FTCS solution after m steps for the separable
// initial condition sin(πx)sin(πy)sin(πz): the scheme damps the fundamental
// mode by an exactly computable factor per step, enabling tight validation.
func exact(par Params, i, j, k, m int) float64 {
	h := 1.0 / float64(par.N+1)
	gamma := 1 - 4*par.K*3*sq(math.Sin(math.Pi*h/2))
	x := float64(i+1) * h
	y := float64(j+1) * h
	z := float64(k+1) * h
	return math.Pow(gamma, float64(m)) * math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
}

func sq(v float64) float64 { return v * v }

// sizeErr reports why the problem cannot be split over par.Nodes (nil when it
// can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	px, py, pz := Decompose(par.Nodes)
	if par.N%px != 0 || par.N%py != 0 || par.N%pz != 0 {
		return fmt.Errorf("heat: N=%d not divisible by %d×%d×%d decomposition", par.N, px, py, pz)
	}
	return nil
}

// Run executes the solver.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	px, py, pz := Decompose(par.Nodes)
	res := Result{Net: net, Nodes: par.Nodes, N: par.N, Steps: par.Steps}
	if par.KeepField {
		res.Field = make([]float64, par.N*par.N*par.N)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		s := newSolver(n, be, par, px, py, pz)
		d := s.run(net)
		res.Timeouts += s.timeouts
		res.Errors += s.errs
		if par.KeepField {
			s.gatherInto(res.Field)
		}
		return d
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	return res
}

// solver is one node's slab state.
type solver struct {
	n          *cluster.Node
	be         comm.Backend
	par        Params
	px, py, pz int
	cx, cy, cz int // coordinates in the process grid
	lx, ly, lz int // local interior extents
	x0, y0, z0 int // global offsets
	// u has a one-cell ghost shell: (lx+2)(ly+2)(lz+2), index (i,j,k) with
	// i fastest... we use k-major for contiguous x-y faces? Layout: idx =
	// ((i+1)*(ly+2)+(j+1))*(lz+2) + (k+1).
	u, un []float64

	// Data Vortex state.
	faceWords   [6]int // outgoing words per face (0 when at boundary)
	inOff       [6]int // incoming-region offsets per face (uniform layout)
	regionWords int    // full region size (all six slots)
	region      [2]uint32
	gc          [2]int
	expected    int64
	prog        [2]*vic.DMAProgram
	rdprog      [2]*vic.ReadProgram
	raw         []uint64 // the pulled halo region, one row for every step

	// MPI state: each face's encoded halo, in flight from Isend to the
	// Waitall that ends the exchange and reused by the next step's.
	wire [6][]byte

	timeouts int64 // bounded halo waits that gave up
	errs     int   // reliable-path delivery errors
}

// fail tallies a reliable-path error.
func (s *solver) fail(err error) {
	if err != nil {
		s.errs++
	}
}

// Face order: -x, +x, -y, +y, -z, +z.
var faceDirs = [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

func newSolver(n *cluster.Node, be comm.Backend, par Params, px, py, pz int) *solver {
	s := &solver{n: n, be: be, par: par, px: px, py: py, pz: pz}
	id := n.ID
	s.cx = id / (py * pz)
	s.cy = (id / pz) % py
	s.cz = id % pz
	s.lx, s.ly, s.lz = par.N/px, par.N/py, par.N/pz
	s.x0, s.y0, s.z0 = s.cx*s.lx, s.cy*s.ly, s.cz*s.lz
	size := (s.lx + 2) * (s.ly + 2) * (s.lz + 2)
	s.u = make([]float64, size)
	s.un = make([]float64, size)
	h := 1.0 / float64(par.N+1)
	for i := 0; i < s.lx; i++ {
		for j := 0; j < s.ly; j++ {
			for k := 0; k < s.lz; k++ {
				x := float64(s.x0+i+1) * h
				y := float64(s.y0+j+1) * h
				z := float64(s.z0+k+1) * h
				s.u[s.idx(i, j, k)] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
			}
		}
	}
	// Face sizes (words) and incoming-region layout.
	areas := [6]int{s.ly * s.lz, s.ly * s.lz, s.lx * s.lz, s.lx * s.lz, s.lx * s.ly, s.lx * s.ly}
	off := 0
	for f := 0; f < 6; f++ {
		s.inOff[f] = off
		off += areas[f]
		if s.neighbor(f) >= 0 {
			s.faceWords[f] = areas[f]
		}
	}
	s.regionWords = off
	if e := be.Endpoint(); e != nil {
		s.region[0] = e.Alloc(off)
		s.region[1] = e.Alloc(off)
		s.gc[0] = e.AllocGC()
		s.gc[1] = e.AllocGC()
		for f := 0; f < 6; f++ {
			if s.neighbor(f) >= 0 {
				s.expected += int64(areas[f])
			}
		}
		e.ArmGC(s.gc[0], s.expected)
		e.ArmGC(s.gc[1], s.expected)
		// The halo pattern is fixed, so the restructured implementation
		// stages the descriptors as persistent DMA programs: one scatter
		// program and one halo-read program per step parity.
		for par := 0; par < 2; par++ {
			var tmpl []vic.Word
			for f := 0; f < 6; f++ {
				nb := s.neighbor(f)
				if nb < 0 {
					continue
				}
				base := s.region[par] + uint32(s.inOff[opp(f)])
				for w := 0; w < s.faceWords[f]; w++ {
					tmpl = append(tmpl, vic.Word{Dst: nb, Op: vic.OpWrite,
						GC: s.gc[par], Addr: base + uint32(w)})
				}
			}
			s.prog[par] = e.NewProgram(tmpl)
			if s.expected > 0 {
				s.rdprog[par] = e.NewReadProgram(s.region[par], s.regionWords)
			}
		}
		s.raw = make([]uint64, s.regionWords)
	}
	return s
}

// idx maps local interior coordinates (0-based) into the ghosted array.
func (s *solver) idx(i, j, k int) int {
	return ((i+1)*(s.ly+2)+(j+1))*(s.lz+2) + (k + 1)
}

// neighbor returns the rank across face f, or -1 at the domain boundary.
func (s *solver) neighbor(f int) int {
	d := faceDirs[f]
	nx, ny, nz := s.cx+d[0], s.cy+d[1], s.cz+d[2]
	if nx < 0 || nx >= s.px || ny < 0 || ny >= s.py || nz < 0 || nz >= s.pz {
		return -1
	}
	return (nx*s.py+ny)*s.pz + nz
}

// packFace extracts the outgoing boundary plane for face f.
func (s *solver) packFace(f int, out []float64) {
	n := 0
	switch f {
	case 0, 1:
		i := 0
		if f == 1 {
			i = s.lx - 1
		}
		for j := 0; j < s.ly; j++ {
			for k := 0; k < s.lz; k++ {
				out[n] = s.u[s.idx(i, j, k)]
				n++
			}
		}
	case 2, 3:
		j := 0
		if f == 3 {
			j = s.ly - 1
		}
		for i := 0; i < s.lx; i++ {
			for k := 0; k < s.lz; k++ {
				out[n] = s.u[s.idx(i, j, k)]
				n++
			}
		}
	default:
		k := 0
		if f == 5 {
			k = s.lz - 1
		}
		for i := 0; i < s.lx; i++ {
			for j := 0; j < s.ly; j++ {
				out[n] = s.u[s.idx(i, j, k)]
				n++
			}
		}
	}
}

// unpackFace installs an incoming plane into the ghost shell of face f.
func (s *solver) unpackFace(f int, in []float64) {
	n := 0
	set := func(i, j, k int) {
		s.u[((i+1)*(s.ly+2)+(j+1))*(s.lz+2)+(k+1)] = in[n]
		n++
	}
	switch f {
	case 0, 1:
		i := -1
		if f == 1 {
			i = s.lx
		}
		for j := 0; j < s.ly; j++ {
			for k := 0; k < s.lz; k++ {
				set(i, j, k)
			}
		}
	case 2, 3:
		j := -1
		if f == 3 {
			j = s.ly
		}
		for i := 0; i < s.lx; i++ {
			for k := 0; k < s.lz; k++ {
				set(i, j, k)
			}
		}
	default:
		k := -1
		if f == 5 {
			k = s.lz
		}
		for i := 0; i < s.lx; i++ {
			for j := 0; j < s.ly; j++ {
				set(i, j, k)
			}
		}
	}
}

// update applies one FTCS step to the interior (ghosts hold neighbour data;
// boundary ghosts stay zero = Dirichlet).
func (s *solver) update() {
	k := s.par.K
	ly2, lz2 := s.ly+2, s.lz+2
	for i := 0; i < s.lx; i++ {
		for j := 0; j < s.ly; j++ {
			base := ((i+1)*ly2 + (j + 1)) * lz2
			for kk := 0; kk < s.lz; kk++ {
				c := base + kk + 1
				s.un[c] = s.u[c] + k*(s.u[c-ly2*lz2]+s.u[c+ly2*lz2]+
					s.u[c-lz2]+s.u[c+lz2]+s.u[c-1]+s.u[c+1]-6*s.u[c])
			}
		}
	}
	s.u, s.un = s.un, s.u
	s.n.Flops(9 * float64(s.lx*s.ly*s.lz))
}

// opposite face index (incoming data for my face f ghost comes from the
// neighbour's opposite outgoing face, written into my inOff[f] slot).
func opp(f int) int { return f ^ 1 }

// run executes the timestep loop and returns the measured span.
func (s *solver) run(net comm.Net) sim.Time {
	n := s.n
	if s.par.Reliable && net == comm.DV {
		s.fail(s.be.ReliableBarrier())
	} else {
		s.be.Barrier()
	}
	t0 := n.P.Now()
	buf := make([]float64, s.lx*s.ly+s.ly*s.lz+s.lx*s.lz) // scratch max face
	for step := 0; step < s.par.Steps; step++ {
		switch {
		case net != comm.DV:
			s.exchangeMPI(buf)
		case s.par.Reliable:
			s.exchangeDVReliable(step, buf)
		default:
			s.exchangeDV(step, buf)
		}
		s.update()
	}
	switch {
	case net != comm.DV:
		s.be.Barrier()
	case s.par.Reliable:
		s.fail(s.be.ReliableBarrier())
	case s.par.WaitTimeout == 0:
		s.be.Barrier()
		// (bounded mode skips the intrinsic barrier: it hangs forever if one
		// of its notification packets is lost)
	}
	return n.P.Now() - t0
}

// exchangeMPI posts all six receives and non-blocking sends, then unpacks.
func (s *solver) exchangeMPI(buf []float64) {
	c := s.be.MPI()
	var sends []*mpi.Request
	recvs := [6]*mpi.Request{}
	for f := 0; f < 6; f++ {
		if s.neighbor(f) >= 0 {
			recvs[f] = c.Irecv(s.neighbor(f), 10+opp(f))
		}
	}
	for f := 0; f < 6; f++ {
		nb := s.neighbor(f)
		if nb < 0 {
			continue
		}
		face := buf[:s.faceWords[f]]
		s.packFace(f, face)
		s.n.Compute(sim.BytesAt(len(face)*8, 8e9)) // pack pass
		s.wire[f] = mpi.AppendFloat64s(s.wire[f][:0], face)
		sends = append(sends, c.Isend(nb, 10+f, s.wire[f]))
	}
	for f := 0; f < 6; f++ {
		if recvs[f] == nil {
			continue
		}
		data, _ := c.Wait(recvs[f])
		// buf is free again: every face is packed and encoded by now.
		s.unpackFace(f, mpi.Float64sInto(buf, data))
		s.n.Compute(sim.BytesAt(len(data), 8e9)) // unpack pass
	}
	c.Waitall(sends)
}

// exchangeDV sends all six faces in one source-aggregated scatter, waits on
// the step-parity group counter, and pulls the whole halo with one DMA read.
func (s *solver) exchangeDV(step int, buf []float64) {
	e := s.be.Endpoint()
	par := step & 1
	// Refresh the prepared program's payloads with this step's faces.
	w := 0
	for f := 0; f < 6; f++ {
		if s.neighbor(f) < 0 {
			continue
		}
		face := buf[:s.faceWords[f]]
		s.packFace(f, face)
		for _, v := range face {
			s.prog[par].SetPayload(w, math.Float64bits(v))
			w++
		}
	}
	s.n.Compute(sim.BytesAt(w*8, 8e9)) // pack pass
	e.Trigger(s.prog[par])
	wait := sim.Forever
	if s.par.WaitTimeout > 0 {
		wait = s.par.WaitTimeout
	}
	if !e.WaitGC(s.gc[par], wait) {
		s.timeouts++ // halo incomplete: the step proceeds on stale ghosts
	}
	// One DMA read covers every incoming face (the region layout is the
	// same on every node, so senders can address slots symmetrically).
	if s.expected > 0 {
		raw := s.raw
		e.Pull(s.rdprog[par], raw)
		var vals []float64
		for f := 0; f < 6; f++ {
			if s.neighbor(f) < 0 {
				continue
			}
			vals = vals[:0]
			for _, b := range raw[s.inOff[f] : s.inOff[f]+s.faceWords[f]] {
				vals = append(vals, math.Float64frombits(b))
			}
			s.unpackFace(f, vals)
		}
	}
	e.AddGC(s.gc[par], s.expected) // re-arm for step+2
}

// exchangeDVReliable is the halo exchange over the reliable-delivery layer:
// the six faces go out as one ReliableScatter of plain writes into the
// neighbours' halo regions (unique addresses, so retransmits are idempotent),
// a ReliableBarrier stands in for the group-counter wait, and the incoming
// halo is pulled with the same prepared DMA read as the unprotected path.
func (s *solver) exchangeDVReliable(step int, buf []float64) {
	e := s.be.Endpoint()
	par := step & 1
	var words []vic.Word
	for f := 0; f < 6; f++ {
		nb := s.neighbor(f)
		if nb < 0 {
			continue
		}
		face := buf[:s.faceWords[f]]
		s.packFace(f, face)
		base := s.region[par] + uint32(s.inOff[opp(f)])
		for w, v := range face {
			words = append(words, vic.Word{Dst: nb, Op: vic.OpWrite, GC: vic.NoGC,
				Addr: base + uint32(w), Val: math.Float64bits(v)})
		}
	}
	s.n.Compute(sim.BytesAt(len(words)*8, 8e9)) // pack pass
	s.fail(e.ReliableScatter(words))
	s.fail(e.ReliableBarrier())
	if s.expected > 0 {
		raw := s.raw
		e.Pull(s.rdprog[par], raw)
		var vals []float64
		for f := 0; f < 6; f++ {
			if s.neighbor(f) < 0 {
				continue
			}
			vals = vals[:0]
			for _, b := range raw[s.inOff[f] : s.inOff[f]+s.faceWords[f]] {
				vals = append(vals, math.Float64frombits(b))
			}
			s.unpackFace(f, vals)
		}
	}
}

// gatherInto copies this node's interior into the global field (host-side
// collection for validation).
func (s *solver) gatherInto(field []float64) {
	N := s.par.N
	for i := 0; i < s.lx; i++ {
		for j := 0; j < s.ly; j++ {
			for k := 0; k < s.lz; k++ {
				field[((s.x0+i)*N+(s.y0+j))*N+(s.z0+k)] = s.u[s.idx(i, j, k)]
			}
		}
	}
}

// MaxErr compares a gathered field against the discrete exact solution.
func MaxErr(par Params, field []float64) float64 {
	par.defaults()
	var m float64
	N := par.N
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			for k := 0; k < N; k++ {
				d := math.Abs(field[(i*N+j)*N+k] - exact(par, i, j, k, par.Steps))
				if d > m {
					m = d
				}
			}
		}
	}
	return m
}
