// Package vorticity implements the paper's ideal incompressible flow
// application (§VII): a pseudo-spectral solver for the 2-D Euler equations
// in vorticity–streamfunction form on a periodic box, the setting of the
// Kelvin–Helmholtz instability. Each time step computes five distributed
// 2-D FFTs (velocities and vorticity gradients to physical space, the
// nonlinear product back to spectral space), so the dominant communication
// cost is matrix transposition — which the Data Vortex variant folds into
// the communication by scattering every element straight to its transposed
// DV Memory slot through persistent DMA programs, exactly the "aggressive
// restructuring" the paper describes.
package vorticity

import (
	"fmt"
	"math"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/fftkernel"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// Params configures a run.
type Params struct {
	Nodes int
	N     int     // grid points per dimension (power of two)
	Steps int     // forward-Euler steps
	Dt    float64 // time step
	Seed  uint64
	// InitTaylorGreen selects the stationary Taylor–Green vortex instead
	// of the Kelvin–Helmholtz double shear layer.
	InitTaylorGreen bool
	// RK2 selects Heun's method (two RHS evaluations, ten FFTs per step)
	// instead of forward Euler (five FFTs per step, the communication
	// pattern the paper describes). RK2 conserves the invariants an order
	// better at the same dt.
	RK2 bool
	// KeepField gathers the final physical vorticity for validation.
	KeepField bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.N == 0 {
		p.N = 64
	}
	if p.Steps == 0 {
		p.Steps = 10
	}
	if p.Dt == 0 {
		p.Dt = 1e-3
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
	// Field is the gathered final vorticity (row-major ω[x][y]) when
	// KeepField was set.
	Field []float64
	// Energy and Enstrophy are the final spectral invariants.
	Energy, Enstrophy float64
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// initialVorticity returns ω(x,y) at t=0.
func initialVorticity(par Params, x, y float64) float64 {
	if par.InitTaylorGreen {
		// Stationary solution of 2-D Euler: the nonlinear term vanishes.
		return 2 * math.Cos(x) * math.Cos(y)
	}
	// Kelvin–Helmholtz: two perturbed shear layers.
	const rho = 0.20
	const delta = 0.05
	s1 := 1 / math.Cosh((y-math.Pi/2)/rho)
	s2 := 1 / math.Cosh((y-3*math.Pi/2)/rho)
	return delta*math.Cos(x) + s1*s1/rho - s2*s2/rho
}

// wavenumber maps an FFT index to its signed wavenumber.
func wavenumber(j, n int) float64 {
	if j <= n/2 {
		return float64(j)
	}
	return float64(j - n)
}

// sizeErr reports why the problem cannot be split over par.Nodes (nil when it
// can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	if !fftkernel.IsPow2(par.N) || par.N%par.Nodes != 0 {
		return fmt.Errorf("vorticity: N=%d invalid for %d nodes", par.N, par.Nodes)
	}
	return nil
}

// Run executes the solver.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	res := Result{Net: net, Nodes: par.Nodes, N: par.N, Steps: par.Steps}
	if par.KeepField {
		res.Field = make([]float64, par.N*par.N)
	}
	energies := make([]float64, par.Nodes)
	enstrophies := make([]float64, par.Nodes)
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		s := newSolver(n, be, net, par)
		d := s.run()
		energies[n.ID], enstrophies[n.ID] = s.invariants()
		if par.KeepField {
			s.gatherInto(res.Field)
		}
		return d
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	for i := range energies {
		res.Energy += energies[i]
		res.Enstrophy += enstrophies[i]
	}
	return res
}

// solver holds one node's slab. The spectral state w is kept in TRANSPOSED
// layout: rows are ky (this node owns ky ∈ [lo, lo+rows)), columns are kx.
type solver struct {
	n    *cluster.Node
	be   comm.Backend
	net  comm.Net
	par  Params
	p    int // nodes
	rows int // n/p
	lo   int // first owned row (ky in spectral layout, x in physical)

	w []complex128 // ω̂ transposed: [ky-lo][kx]

	// Data Vortex transpose state (two parities).
	region [2]uint32
	gc     [2]int
	prog   [2]*vic.DMAProgram
	rdprog [2]*vic.ReadProgram
	raw    []uint64 // the pulled region, one row for every transpose
	tcount int      // transposes executed (selects parity)

	// MPI transpose scratch, kept across transposes: the send blocks, and
	// one block's values while it is packed or unpacked.
	send  [][]byte
	block []float64
}

func newSolver(n *cluster.Node, be comm.Backend, net comm.Net, par Params) *solver {
	s := &solver{n: n, be: be, net: net, par: par, p: par.Nodes, rows: par.N / par.Nodes}
	s.lo = n.ID * s.rows
	N := par.N
	// Physical slab (x-rows) of the initial condition.
	phys := make([]complex128, s.rows*N)
	h := 2 * math.Pi / float64(N)
	for r := 0; r < s.rows; r++ {
		x := float64(s.lo+r) * h
		for c := 0; c < N; c++ {
			phys[r*N+c] = complex(initialVorticity(par, x, float64(c)*h), 0)
		}
	}
	if net == comm.DV {
		e := be.Endpoint()
		words := 2 * s.rows * N
		for par2 := 0; par2 < 2; par2++ {
			s.region[par2] = e.Alloc(words)
			s.gc[par2] = e.AllocGC()
			e.ArmGC(s.gc[par2], int64(2*s.rows*(N-s.rows)))
			// Persistent scatter program: the transpose pattern is fixed.
			var tmpl []vic.Word
			for q := 0; q < s.p; q++ {
				if q == n.ID {
					continue
				}
				for col := q * s.rows; col < (q+1)*s.rows; col++ {
					for row := 0; row < s.rows; row++ {
						addr := s.region[par2] + uint32(2*((col-q*s.rows)*N+s.lo+row))
						tmpl = append(tmpl,
							vic.Word{Dst: q, Op: vic.OpWrite, GC: s.gc[par2], Addr: addr},
							vic.Word{Dst: q, Op: vic.OpWrite, GC: s.gc[par2], Addr: addr + 1})
					}
				}
			}
			s.prog[par2] = e.NewProgram(tmpl)
			s.rdprog[par2] = e.NewReadProgram(s.region[par2], words)
		}
		s.raw = make([]uint64, words)
	} else {
		s.send = make([][]byte, s.p)
	}
	// Transform the initial condition to the transposed spectral layout.
	s.w = s.fft2Forward(phys)
	return s
}

// transpose redistributes the slab (rows ↔ columns of an N×N matrix).
func (s *solver) transpose(m []complex128) []complex128 {
	N := s.par.N
	if s.net == comm.IB {
		return s.mpiTranspose(m, N)
	}
	e := s.be.Endpoint()
	par := s.tcount & 1
	s.tcount++
	out := make([]complex128, s.rows*N)
	// Own diagonal block.
	for col := s.lo; col < s.lo+s.rows; col++ {
		for row := 0; row < s.rows; row++ {
			out[(col-s.lo)*N+s.lo+row] = m[row*N+col]
		}
	}
	// Refresh payloads in the prepared program.
	wi := 0
	pr := s.prog[par]
	for q := 0; q < s.p; q++ {
		if q == s.n.ID {
			continue
		}
		for col := q * s.rows; col < (q+1)*s.rows; col++ {
			for row := 0; row < s.rows; row++ {
				v := m[row*N+col]
				pr.SetPayload(wi, math.Float64bits(real(v)))
				pr.SetPayload(wi+1, math.Float64bits(imag(v)))
				wi += 2
			}
		}
	}
	s.n.Compute(sim.BytesAt(len(m)*16, 8e9)) // stage payloads
	e.Trigger(pr)
	e.WaitGC(s.gc[par], sim.Forever)
	raw := s.raw
	e.Pull(s.rdprog[par], raw)
	for or := 0; or < s.rows; or++ {
		for col := 0; col < N; col++ {
			if col >= s.lo && col < s.lo+s.rows {
				continue
			}
			i := 2 * (or*N + col)
			out[or*N+col] = complex(math.Float64frombits(raw[i]), math.Float64frombits(raw[i+1]))
		}
	}
	e.AddGC(s.gc[par], int64(2*s.rows*(N-s.rows))) // re-arm for parity+2
	return out
}

func (s *solver) mpiTranspose(m []complex128, N int) []complex128 {
	c := s.be.MPI()
	for q := 0; q < s.p; q++ {
		s.block = s.block[:0]
		for col := q * s.rows; col < (q+1)*s.rows; col++ {
			for row := 0; row < s.rows; row++ {
				v := m[row*N+col]
				s.block = append(s.block, real(v), imag(v))
			}
		}
		s.send[q] = mpi.AppendFloat64s(s.send[q][:0], s.block)
	}
	s.n.Compute(sim.BytesAt(len(m)*16, 8e9)) // pack
	recv := c.Alltoall(s.send)
	out := make([]complex128, s.rows*N)
	for q := 0; q < s.p; q++ {
		s.block = mpi.Float64sInto(s.block, recv[q])
		i := 0
		for or := 0; or < s.rows; or++ {
			for sr := 0; sr < s.rows; sr++ {
				out[or*N+q*s.rows+sr] = complex(s.block[i], s.block[i+1])
				i += 2
			}
		}
	}
	s.n.Compute(sim.BytesAt(len(out)*16, 8e9)) // unpack
	return out
}

// fft2Forward transforms a physical slab (x-rows) into the transposed
// spectral layout (ky-rows): row FFTs over y, transpose, row FFTs over x.
func (s *solver) fft2Forward(phys []complex128) []complex128 {
	N := s.par.N
	a := append([]complex128(nil), phys...)
	for r := 0; r < s.rows; r++ {
		fftkernel.Forward(a[r*N : (r+1)*N])
	}
	s.n.Flops(float64(s.rows) * fftkernel.Flops(N))
	a = s.transpose(a)
	for r := 0; r < s.rows; r++ {
		fftkernel.Forward(a[r*N : (r+1)*N])
	}
	s.n.Flops(float64(s.rows) * fftkernel.Flops(N))
	return a
}

// fft2Inverse transforms a transposed spectral slab back to physical x-rows.
func (s *solver) fft2Inverse(spec []complex128) []complex128 {
	N := s.par.N
	a := append([]complex128(nil), spec...)
	for r := 0; r < s.rows; r++ {
		fftkernel.Inverse(a[r*N : (r+1)*N])
	}
	s.n.Flops(float64(s.rows) * fftkernel.Flops(N))
	a = s.transpose(a)
	for r := 0; r < s.rows; r++ {
		fftkernel.Inverse(a[r*N : (r+1)*N])
	}
	s.n.Flops(float64(s.rows) * fftkernel.Flops(N))
	return a
}

// rhs evaluates ∂ω̂/∂t = -FFT(u·∇ω), dealiased — five 2-D FFTs.
func (s *solver) rhs(w []complex128) []complex128 {
	N := s.par.N
	uh := make([]complex128, len(w))
	vh := make([]complex128, len(w))
	wxh := make([]complex128, len(w))
	wyh := make([]complex128, len(w))
	for r := 0; r < s.rows; r++ {
		ky := wavenumber(s.lo+r, N)
		for c := 0; c < N; c++ {
			kx := wavenumber(c, N)
			k2 := kx*kx + ky*ky
			if k2 == 0 {
				continue
			}
			psi := w[r*N+c] / complex(k2, 0)
			uh[r*N+c] = complex(0, ky) * psi
			vh[r*N+c] = complex(0, -kx) * psi
			wxh[r*N+c] = complex(0, kx) * w[r*N+c]
			wyh[r*N+c] = complex(0, ky) * w[r*N+c]
		}
	}
	s.n.Flops(20 * float64(s.rows*N))
	u := s.fft2Inverse(uh)
	v := s.fft2Inverse(vh)
	wx := s.fft2Inverse(wxh)
	wy := s.fft2Inverse(wyh)
	nl := make([]complex128, len(w))
	for i := range nl {
		nl[i] = -complex(real(u[i])*real(wx[i])+real(v[i])*real(wy[i]), 0)
	}
	s.n.Flops(4 * float64(s.rows*N))
	nlh := s.fft2Forward(nl)
	// 2/3-rule dealiasing.
	cut := float64(N) / 3
	for r := 0; r < s.rows; r++ {
		ky := wavenumber(s.lo+r, N)
		for c := 0; c < N; c++ {
			kx := wavenumber(c, N)
			if math.Abs(kx) > cut || math.Abs(ky) > cut {
				nlh[r*N+c] = 0
			}
		}
	}
	return nlh
}

// run advances the solver Steps forward-Euler steps.
func (s *solver) run() sim.Time {
	s.barrier()
	t0 := s.n.P.Now()
	dt := complex(s.par.Dt, 0)
	for step := 0; step < s.par.Steps; step++ {
		k1 := s.rhs(s.w)
		if !s.par.RK2 {
			for i := range s.w {
				s.w[i] += dt * k1[i]
			}
			s.n.Flops(4 * float64(len(s.w)))
			continue
		}
		// Heun: predict, re-evaluate, average.
		pred := make([]complex128, len(s.w))
		for i := range s.w {
			pred[i] = s.w[i] + dt*k1[i]
		}
		k2 := s.rhs(pred)
		half := dt / 2
		for i := range s.w {
			s.w[i] += half * (k1[i] + k2[i])
		}
		s.n.Flops(12 * float64(len(s.w)))
	}
	s.barrier()
	return s.n.P.Now() - t0
}

func (s *solver) barrier() {
	s.be.Barrier()
}

// invariants returns this slab's contribution to kinetic energy and
// enstrophy (spectral sums).
func (s *solver) invariants() (energy, enstrophy float64) {
	N := s.par.N
	for r := 0; r < s.rows; r++ {
		ky := wavenumber(s.lo+r, N)
		for c := 0; c < N; c++ {
			kx := wavenumber(c, N)
			k2 := kx*kx + ky*ky
			m2 := real(s.w[r*N+c])*real(s.w[r*N+c]) + imag(s.w[r*N+c])*imag(s.w[r*N+c])
			enstrophy += m2
			if k2 > 0 {
				energy += m2 / k2
			}
		}
	}
	norm := float64(N * N * N * N)
	return energy / norm, enstrophy / norm
}

// gatherInto converts the slab to physical space and stores it in the global
// field (validation only; runs after timing).
func (s *solver) gatherInto(field []float64) {
	phys := s.fft2Inverse(s.w)
	N := s.par.N
	for r := 0; r < s.rows; r++ {
		for c := 0; c < N; c++ {
			field[(s.lo+r)*N+c] = real(phys[r*N+c])
		}
	}
}

// SerialReference runs the same algorithm on one node and returns the final
// physical vorticity.
func SerialReference(par Params) []float64 {
	par.defaults()
	p2 := par
	p2.Nodes = 1
	p2.KeepField = true
	return Run(comm.IB, p2).Field
}
