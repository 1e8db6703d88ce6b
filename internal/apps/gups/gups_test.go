package gups

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
)

// divOwner is owner by plain division, the reference ownerMap is held to.
func divOwner(a uint64, nodes, wordsPerNode int) (int, int) {
	idx := a % uint64(nodes*wordsPerNode)
	return int(idx) / wordsPerNode, int(idx) % wordsPerNode
}

// replaySerial computes the expected final table by applying every node's
// update stream serially (XOR commutes, so order is irrelevant).
func replaySerial(par Params) [][]uint64 {
	par.defaults()
	tables := make([][]uint64, par.Nodes)
	for i := range tables {
		tables[i] = make([]uint64, par.TableWordsNode)
	}
	for node := 0; node < par.Nodes; node++ {
		rng := updateStream(par.Seed, node)
		for u := 0; u < par.UpdatesPerNode; u++ {
			a := rng.Uint64()
			dst, li := divOwner(a, par.Nodes, par.TableWordsNode)
			tables[dst][li] ^= a
		}
	}
	return tables
}

func checkTables(t *testing.T, got, want [][]uint64, label string) {
	t.Helper()
	for node := range want {
		for i := range want[node] {
			if got[node][i] != want[node][i] {
				t.Fatalf("%s: table[%d][%d] = %x, want %x", label, node, i, got[node][i], want[node][i])
			}
		}
	}
}

func TestDVCorrectness(t *testing.T) {
	par := Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 4096, KeepTables: true}
	r := Run(comm.DV, par)
	checkTables(t, r.Tables, replaySerial(par), "DV")
}

func TestMPICorrectness(t *testing.T) {
	par := Params{Nodes: 4, TableWordsNode: 1 << 10, UpdatesPerNode: 4096, KeepTables: true}
	r := Run(comm.IB, par)
	checkTables(t, r.Tables, replaySerial(par), "MPI")
}

func TestDVCorrectnessCycleAccurate(t *testing.T) {
	par := Params{Nodes: 4, TableWordsNode: 1 << 8, UpdatesPerNode: 1024,
		KeepTables: true, Platform: cluster.Platform{CycleAccurate: true}}
	r := Run(comm.DV, par)
	checkTables(t, r.Tables, replaySerial(par), "DV cycle-accurate")
}

func TestNonPowerOfTwoNodes(t *testing.T) {
	par := Params{Nodes: 3, TableWordsNode: 1 << 9, UpdatesPerNode: 2048, KeepTables: true}
	r := Run(comm.DV, par)
	checkTables(t, r.Tables, replaySerial(par), "DV n=3")
}

// TestFigure6Shape pins the GUPS scaling story: the Data Vortex rate per
// node stays roughly flat from 4 to 32 nodes while the MPI rate decays, so
// the aggregate gap widens with node count and DV leads at every point.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	par := func(n int) Params {
		return Params{Nodes: n, TableWordsNode: 1 << 14, UpdatesPerNode: 1 << 13}
	}
	dv4, dv32 := Run(comm.DV, par(4)), Run(comm.DV, par(32))
	ib4, ib32 := Run(comm.IB, par(4)), Run(comm.IB, par(32))

	if dv4.MUPSPerNode() < ib4.MUPSPerNode() {
		t.Errorf("at 4 nodes DV (%0.1f) should lead MPI (%0.1f) MUPS/PE",
			dv4.MUPSPerNode(), ib4.MUPSPerNode())
	}
	// DV per-PE rate roughly flat (within 2x).
	if ratio := dv4.MUPSPerNode() / dv32.MUPSPerNode(); ratio > 2 {
		t.Errorf("DV per-PE rate decayed %0.2fx from 4 to 32 nodes", ratio)
	}
	// IB per-PE rate decays materially.
	if ratio := ib4.MUPSPerNode() / ib32.MUPSPerNode(); ratio < 1.5 {
		t.Errorf("IB per-PE rate should decay with scale, got %0.2fx", ratio)
	}
	// Aggregate gap widens.
	gap4 := dv4.MUPS() / ib4.MUPS()
	gap32 := dv32.MUPS() / ib32.MUPS()
	if gap32 <= gap4 {
		t.Errorf("aggregate DV/IB gap should widen: %0.2fx @4 vs %0.2fx @32", gap4, gap32)
	}
}

func TestOwnerMapsAllNodes(t *testing.T) {
	seen := make(map[int]bool)
	rng := updateStream(1, 0)
	om := newOwnerMap(8, 1024)
	for i := 0; i < 10000; i++ {
		d, li := om.owner(rng.Uint64())
		if d < 0 || d >= 8 || li < 0 || li >= 1024 {
			t.Fatalf("owner out of range: %d %d", d, li)
		}
		seen[d] = true
	}
	if len(seen) != 8 {
		t.Fatalf("owner only hit %d nodes", len(seen))
	}
}

// TestOwnerMapMatchesDivide: the folded map equals plain division for node
// counts prime, odd, power of two and large, table sizes from one word up,
// on random values and on the edges of the 64-bit range and of the table.
func TestOwnerMapMatchesDivide(t *testing.T) {
	rng := updateStream(3, 0)
	for _, nodes := range []int{1, 2, 3, 5, 7, 8, 12, 31, 32, 100, 255, 256, 1000, 4093, 1<<20 + 7, 1<<31 - 1} {
		for _, words := range []int{1, 2, 1 << 10, 1 << 16, 1 << 24} {
			if nodes > 1<<62/words {
				continue
			}
			om := newOwnerMap(nodes, words)
			total := uint64(nodes * words)
			vals := []uint64{0, 1, total - 1, total, total + 1, 2*total - 1, ^uint64(0), ^uint64(0) - 1,
				^uint64(0) / total * total, ^uint64(0)/total*total - 1, 1 << 63, 1<<63 - 1}
			for range 2000 {
				vals = append(vals, rng.Uint64(), rng.Uint64()>>(rng.Uint64()%64))
			}
			for _, a := range vals {
				d, li := om.owner(a)
				wd, wli := divOwner(a, nodes, words)
				if d != wd || li != wli {
					t.Fatalf("%d nodes × %d words: owner(%#x) = (%d, %d), division gives (%d, %d)", nodes, words, a, d, li, wd, wli)
				}
			}
		}
	}
}

func TestTableWordsNodeMustBePowerOfTwo(t *testing.T) {
	for _, w := range []int{0, 1, 2, 1 << 12} {
		if err := (Params{TableWordsNode: w}).sizeErr(); err != nil {
			t.Errorf("TableWordsNode %d: %v", w, err)
		}
	}
	for _, w := range []int{3, 6, 1000, 1<<12 + 1} {
		if err := (Params{TableWordsNode: w}).sizeErr(); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("TableWordsNode %d: error %v, want one naming the power of two", w, err)
		}
	}
}

// TestDeterministicElapsed runs each stack twice in one process, at the
// -small size of Figure 6, on fresh clusters: the whole Result — elapsed time,
// the cluster Report, every table word — repeats. Nothing a run recycles
// (mpi's requests, envelopes and receive buffers; the kernel's events) is
// shared between worlds, so nothing carries from run to run.
func TestDeterministicElapsed(t *testing.T) {
	par := Params{Nodes: 8, TableWordsNode: 1 << 12, UpdatesPerNode: 1 << 11, KeepTables: true}
	for _, net := range []comm.Net{comm.DV, comm.IB} {
		a, b := Run(net, par), Run(net, par)
		if a.Elapsed != b.Elapsed {
			t.Fatalf("%v: non-deterministic: %v vs %v", net, a.Elapsed, b.Elapsed)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two runs in one process differ:\n%+v\n%+v", net, a.Report, b.Report)
		}
	}
}

// TestNegativeSizesRejected: a negative size is an error naming the field,
// and Run panics with it before a cluster exists — no driver can print the
// negative rate it would otherwise compute.
func TestNegativeSizesRejected(t *testing.T) {
	for field, par := range map[string]Params{
		"TableWordsNode": {Nodes: 2, TableWordsNode: -8},
		"UpdatesPerNode": {Nodes: 2, UpdatesPerNode: -1},
		"BatchWords":     {Nodes: 2, BatchWords: -1024},
	} {
		if err := par.sizeErr(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("sizeErr() = %v, want an error naming %s", err, field)
		}
	}
	if err := (Params{Nodes: 2}).sizeErr(); err != nil {
		t.Errorf("zero sizes select the defaults, got %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "UpdatesPerNode") {
			t.Errorf("Run with -1 updates: recovered %v, want the size error", r)
		}
	}()
	Run(comm.DV, Params{Nodes: 2, UpdatesPerNode: -1})
}
