// Package fft implements the distributed 1-D complex FFT benchmark (§VI,
// Figure 7) using the six-step (transpose) algorithm: local row FFTs,
// twiddle scaling, and two distributed matrix transposes.
//
// The MPI variant exchanges transpose blocks with an all-to-all and pays
// pack/unpack passes on both sides. The Data Vortex variant exploits the
// fabric's natural scatter capability: every element is sent straight to its
// transposed location in the destination VIC's DV Memory, folding the data
// reordering into the communication itself — the idiom the paper highlights
// for redistribution-heavy applications.
package fft

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
	LogN  int // total points = 2^LogN
	Seed  uint64
	// KeepResult gathers the distributed spectrum for validation.
	KeepResult bool
	// Platform is the run wiring, handed whole to apprt.Execute.
	cluster.Platform
}

func (p *Params) defaults() {
	if p.LogN == 0 {
		p.LogN = 16
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
	Elapsed sim.Time
	// Spectrum is the gathered result, row-major X[k1][k2] with k = k2 +
	// n2·k1, when KeepResult was set.
	Spectrum []complex128
	// Report is the cluster run report (fabric telemetry, and invariant
	// results when checking was enabled). Excluded from JSON so result
	// serializations predating the field are unchanged.
	Report *cluster.Report `json:"-"`
}

// GFLOPS returns the aggregate rate under the HPCC 5·N·log2(N) convention
// (Figure 7's y axis).
func (r Result) GFLOPS() float64 {
	return fftkernel.Flops(r.N) / r.Elapsed.Seconds() / 1e9
}

// geometry splits N into an n1×n2 matrix with n1 ≤ n2.
func geometry(logN int) (n1, n2 int) {
	l1 := logN / 2
	return 1 << l1, 1 << (logN - l1)
}

// sizeErr reports why the problem cannot be split over par.Nodes (nil when it
// can). Run panics with it; the registered runner returns it.
func (par Params) sizeErr() error {
	par.defaults()
	if n1, n2 := geometry(par.LogN); n1%par.Nodes != 0 || n2%par.Nodes != 0 {
		return fmt.Errorf("fft: 2^%d points not divisible over %d nodes", par.LogN, par.Nodes)
	}
	return nil
}

// inputValue deterministically generates the value of matrix element
// (j1, j2) so every variant (and the serial reference) agrees on the input.
func inputValue(seed uint64, j1, j2, n2 int) complex128 {
	r := sim.NewRNG(seed ^ uint64(j1*n2+j2)*0x94d049bb133111eb)
	return complex(r.Float64()*2-1, r.Float64()*2-1)
}

// SerialReference computes the full FFT on one core, returning the spectrum
// in the same row-major X[k1][k2] layout the distributed variants produce.
func SerialReference(par Params) []complex128 {
	par.defaults()
	n1, n2 := geometry(par.LogN)
	n := n1 * n2
	// Build x[j] with j = j1 + n1·j2 from the matrix M[j1][j2].
	x := make([]complex128, n)
	for j1 := 0; j1 < n1; j1++ {
		for j2 := 0; j2 < n2; j2++ {
			x[j1+n1*j2] = inputValue(par.Seed, j1, j2, n2)
		}
	}
	fftkernel.Forward(x)
	// X[k] with k = k2 + n2·k1 → row-major (k1, k2).
	out := make([]complex128, n)
	for k1 := 0; k1 < n1; k1++ {
		for k2 := 0; k2 < n2; k2++ {
			out[k1*n2+k2] = x[k2+n2*k1]
		}
	}
	return out
}

// Run executes the benchmark.
func Run(net comm.Net, par Params) Result {
	par.defaults()
	if err := par.sizeErr(); err != nil {
		panic(err.Error())
	}
	n1, n2 := geometry(par.LogN)
	res := Result{Net: net, Nodes: par.Nodes, N: n1 * n2}
	var rows [][]complex128
	if par.KeepResult {
		rows = make([][]complex128, par.Nodes)
	}
	rep := apprt.Execute(apprt.RunSpec{
		Net:      net,
		Nodes:    par.Nodes,
		Seed:     par.Seed,
		Platform: par.Platform,
	}, func(n *cluster.Node, be comm.Backend) sim.Time {
		out, d := runNode(n, be, net, par, n1, n2)
		if par.KeepResult {
			rows[n.ID] = out
		}
		return d
	})
	res.Elapsed = rep.Elapsed
	res.Report = rep.Cluster
	if par.KeepResult {
		res.Spectrum = make([]complex128, 0, res.N)
		for _, r := range rows {
			res.Spectrum = append(res.Spectrum, r...)
		}
	}
	return res
}

// runNode executes the six-step FFT on one node and returns its slab of the
// final spectrum (rows k1 ∈ [id·n1/P, ...)) and the measured time.
func runNode(n *cluster.Node, be comm.Backend, net comm.Net, par Params, n1, n2 int) ([]complex128, sim.Time) {
	p := par.Nodes
	rowsA := n1 / p // rows of the n1×n2 matrix per node
	rowsB := n2 / p // rows of the transposed n2×n1 matrix per node
	id := n.ID

	// Initialise local slab of M (rows of length n2).
	local := make([]complex128, rowsA*n2)
	for r := 0; r < rowsA; r++ {
		for c := 0; c < n2; c++ {
			local[r*n2+c] = inputValue(par.Seed, id*rowsA+r, c, n2)
		}
	}

	var tp *transposer
	if net == comm.DV {
		tp = newTransposer(be, n1, n2)
	}
	be.Barrier()
	t0 := n.P.Now()

	// Step 1: row FFTs of length n2.
	for r := 0; r < rowsA; r++ {
		fftkernel.Forward(local[r*n2 : (r+1)*n2])
	}
	n.Flops(float64(rowsA) * fftkernel.Flops(n2))

	// Step 2: twiddle by W_N^(j1·k2).
	N := float64(n1 * n2)
	for r := 0; r < rowsA; r++ {
		j1 := float64(id*rowsA + r)
		for c := 0; c < n2; c++ {
			local[r*n2+c] *= fftkernel.Twiddle(-1, j1*float64(c), N)
		}
	}
	n.Flops(8 * float64(rowsA*n2))

	// Step 3: distributed transpose to n2×n1, then row FFTs of length n1.
	localT := transpose(n, be, net, tp, local, make([]complex128, rowsB*n1), n1, n2)
	for r := 0; r < rowsB; r++ {
		fftkernel.Forward(localT[r*n1 : (r+1)*n1])
	}
	n.Flops(float64(rowsB) * fftkernel.Flops(n1))

	// Step 4: transpose back to n1×n2 natural order, into local: it is dead
	// by now and has the result's shape.
	out := transpose(n, be, net, tp, localT, local, n2, n1)
	be.Barrier()
	return out, n.P.Now() - t0
}

// transpose redistributes an r×c matrix (rows split over nodes) into its c×r
// transpose (rows split over nodes), writing this node's rows into out and
// returning it. out must not overlap local and is overwritten whole.
func transpose(n *cluster.Node, be comm.Backend, net comm.Net, tp *transposer, local, out []complex128, r, c int) []complex128 {
	if net == comm.DV {
		return tp.run(n, be, local, out, r, c)
	}
	return mpiTranspose(n, be, local, out, r, c)
}

// mpiTranspose is the all-to-all implementation with pack/unpack passes.
func mpiTranspose(n *cluster.Node, be comm.Backend, local, out []complex128, r, c int) []complex128 {
	c2 := be.MPI()
	p := c2.Size()
	myRows := r / p
	outRows := c / p
	// Pack: block for node q holds elements (row, col) with col in q's
	// output-row range, stored column-major so the receiver can splice rows.
	send := make([][]byte, p)
	block := make([]float64, 0, 2*myRows*outRows) // one block at a time, packing then unpacking
	for q := 0; q < p; q++ {
		block = block[:0]
		for col := q * outRows; col < (q+1)*outRows; col++ {
			for row := 0; row < myRows; row++ {
				v := local[row*c+col]
				block = append(block, real(v), imag(v))
			}
		}
		send[q] = mpi.AppendFloat64s(nil, block)
	}
	n.Compute(sim.BytesAt(len(local)*16, 8e9)) // pack pass
	recv := c2.Alltoall(send)
	for q := 0; q < p; q++ {
		block = mpi.Float64sInto(block, recv[q])
		i := 0
		// Block from q: columns (now rows) in my range, original rows in
		// q's range.
		for or := 0; or < outRows; or++ {
			for sr := 0; sr < myRows; sr++ {
				out[or*r+q*myRows+sr] = complex(block[i], block[i+1])
				i += 2
			}
		}
	}
	n.Compute(sim.BytesAt(len(out)*16, 8e9)) // unpack pass
	return out
}

// transposer holds the Data Vortex transpose state: a DV Memory region per
// direction and alternating group counters (re-armed each use, fenced by the
// intrinsic barrier).
type transposer struct {
	region uint32
	gc     int
	words  int        // region capacity in words
	raw    []uint64   // the host row the received region is read into
	batch  []vic.Word // one peer's block as words, 2·(n1/p)·(n2/p) of them
}

func newTransposer(be comm.Backend, n1, n2 int) *transposer {
	e := be.Endpoint()
	p := e.Size()
	maxWords := 2 * (n2 / p) * n1
	if w := 2 * (n1 / p) * n2; w > maxWords {
		maxWords = w
	}
	return &transposer{region: e.Alloc(maxWords), gc: e.AllocGC(), words: maxWords, raw: make([]uint64, maxWords),
		batch: make([]vic.Word, 0, 2*(n1/p)*(n2/p))}
}

// run scatters each element directly to its transposed location in the
// destination VIC's DV Memory — redistribution folded into communication.
func (tp *transposer) run(n *cluster.Node, be comm.Backend, local, out []complex128, r, c int) []complex128 {
	e := be.Endpoint()
	p := e.Size()
	id := e.Rank()
	myRows := r / p
	outRows := c / p
	row0 := id * myRows
	remoteWords := int64(2 * outRows * (r - myRows)) // incoming from peers
	e.ArmGC(tp.gc, remoteWords)
	e.Barrier() // everyone armed

	words := tp.batch
	for q := 0; q < p; q++ {
		if q == id {
			// Own block: place directly (host memory copy).
			for col := id * outRows; col < (id+1)*outRows; col++ {
				for row := 0; row < myRows; row++ {
					out[(col-id*outRows)*r+row0+row] = local[row*c+col]
				}
			}
			continue
		}
		words = words[:0]
		for col := q * outRows; col < (q+1)*outRows; col++ {
			for row := 0; row < myRows; row++ {
				v := local[row*c+col]
				// Destination slot: row (col - q·outRows), column row0+row.
				addr := tp.region + uint32(2*((col-q*outRows)*r+row0+row))
				words = append(words,
					vic.Word{Dst: q, Op: vic.OpWrite, GC: tp.gc, Addr: addr, Val: math.Float64bits(real(v))},
					vic.Word{Dst: q, Op: vic.OpWrite, GC: tp.gc, Addr: addr + 1, Val: math.Float64bits(imag(v))})
			}
		}
		e.Scatter(vic.DMACached, words)
	}
	n.Compute(sim.BytesAt(len(local)*16, 8e9)) // stage DMA buffers
	e.WaitGC(tp.gc, sim.Forever)
	// Pull the received region and merge (own block already placed).
	raw := tp.raw[:2*outRows*r]
	e.ReadInto(raw, tp.region)
	for or := 0; or < outRows; or++ {
		for col := 0; col < r; col++ {
			if col >= row0 && col < row0+myRows {
				continue // own block
			}
			i := 2 * (or*r + col)
			out[or*r+col] = complex(math.Float64frombits(raw[i]), math.Float64frombits(raw[i+1]))
		}
	}
	e.Barrier() // fence before the counter is re-armed next call
	return out
}
