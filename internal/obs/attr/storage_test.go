// Tests that hold the flow store's layout, order and cost: records in fixed
// pages in id order, never re-copied; the slowest-flow drill-down a bounded
// selection equal to the full sort it replaced.

package attr

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// boundaryIDs sit on either side of each 4096-record page boundary, listed
// out of id order.
var boundaryIDs = []uint32{8193, 4096, 1, 8192, 4097}

// pageBoundaryTracer begins 2*4096+3 flows and stamps and completes the
// boundaryIDs, in that order.
func pageBoundaryTracer() *Tracer {
	tr := NewTracer(&Config{}, 16)
	const n = 2*4096 + 3
	for i := 0; i < n; i++ {
		tr.Begin(i%7, i%5, Kind(i%int(numKinds)), sim.Time(i)*usT)
	}
	for _, id := range boundaryIDs {
		t0 := sim.Time(id-1) * usT
		tr.Stamp(id, StageHostTx, t0+1*usT)
		tr.Stamp(id, StageSRAM, t0+3*usT)
		tr.StampFabric(id, t0+4*usT, t0+9*usT, int(id%11), int(id%3))
		tr.Stamp(id, StageEject, t0+10*usT)
		tr.Complete(id, t0+sim.Time(id%13)*usT+10*usT)
	}
	return tr
}

// TestPageBoundaries: a flow id is its page and slot. Flows on both sides of
// every page boundary take their own stamps, and every flow reads back in id
// order, field for field what the calls made of it.
func TestPageBoundaries(t *testing.T) {
	tr := pageBoundaryTracer()
	if tr.Len() != 2*4096+3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	done := map[uint32]bool{}
	for _, id := range boundaryIDs {
		done[id] = true
	}
	for i := 0; i < tr.Len(); i++ {
		f := tr.At(i)
		id := uint32(i + 1)
		t0 := sim.Time(i) * usT
		want := Flow{ID: id, Src: int32(i % 7), Dst: int32(i % 5), Kind: Kind(i % int(numKinds)), Issue: t0, last: t0}
		if done[id] {
			drain := sim.Time(id%13) * usT
			want.Dur = [NumStages]sim.Time{1 * usT, 2 * usT, 1 * usT, 5 * usT, 1 * usT, drain}
			want.Hops, want.Deflections = int32(id%11), int32(id%3)
			want.End, want.last, want.Done, want.fabric = t0+10*usT+drain, t0+10*usT+drain, true, true
		}
		if *f != want {
			t.Fatalf("flow %d = %+v, want %+v", id, *f, want)
		}
	}
	if s := tr.Finalize(0); s.Begun != int64(tr.Len()) || s.Completed != int64(len(boundaryIDs)) {
		t.Fatalf("begun/completed = %d/%d", s.Begun, s.Completed)
	}
}

// TestSlowestIsTheSortedPrefix: bounded selection returns, element for
// element, the first k of a full sort under the drill-down order — with
// end-to-end latencies drawn from a handful of values, so most comparisons
// fall through to the flow-id tiebreak.
func TestSlowestIsTheSortedPrefix(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		tr := NewTracer(&Config{}, 16)
		var want []SlowFlow
		for i := 0; i < n; i++ {
			id := tr.Begin(i%9, i%4, KindWrite, sim.Time(i)*usT)
			if rng.Intn(5) == 0 {
				continue // left open: never a candidate
			}
			e2e := sim.Time(1+rng.Intn(6)) * usT
			tr.Complete(id, sim.Time(i)*usT+e2e)
			f := tr.At(i)
			want = append(want, SlowFlow{ID: f.ID, Src: int(f.Src), Dst: int(f.Dst), Kind: f.Kind.Name(),
				Issue: f.Issue, E2E: e2e, Stages: f.Dur})
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].E2E > want[b].E2E })
		for _, k := range []int{0, 1, 16, len(want) - 1, len(want), len(want) + 7} {
			got := tr.slowest(k)
			if !reflect.DeepEqual(got, want[:min(k, len(want))]) {
				t.Fatalf("seed %d, k=%d of %d: selection differs from the sorted prefix\n got %v\nwant %v",
					seed, k, len(want), got, want[:min(k, len(want))])
			}
		}
	}
}

// tracedBytes returns the bytes allocated by building a tracer and beginning
// n flows on it, the least of three measurements: TotalAlloc is process-wide,
// so an allocation elsewhere in the process (another test's goroutine, the
// runtime) can only add to one reading.
func tracedBytes(n int) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr := NewTracer(&Config{}, 16)
		for i := 0; i < n; i++ {
			tr.Begin(i&31, (i+1)&31, KindWrite, sim.Time(i))
		}
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(tr)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestFlowIs104Bytes pins the record size a traced run pays per packet: the
// message size and fabric mark of a traced run fit beside the narrow fields.
func TestFlowIs104Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Flow{}); got != 104 {
		t.Fatalf("attr.Flow is %d bytes, want 104", got)
	}
}

// TestFlowStoreBytes: the store allocates what it holds. Three pages of
// flows cost at most 15% over the records themselves (a slice grown by
// append paid about five times that), and ten flows cost bytes, not a page.
func TestFlowStoreBytes(t *testing.T) {
	const n = 3 * 4096
	floor := uint64(n) * uint64(unsafe.Sizeof(Flow{}))
	if got := tracedBytes(n); got > floor*115/100 {
		t.Errorf("tracing %d flows allocated %d bytes, more than 1.15 x %d", n, got, floor)
	}
	if got := tracedBytes(10); got >= 4<<10 {
		t.Errorf("tracing 10 flows allocated %d bytes, want under 4 KB", got)
	}
}
