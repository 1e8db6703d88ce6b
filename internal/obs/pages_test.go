package obs

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestPagesOrderAndStability: records read back in append order across page
// boundaries, and once the first page is full no Append moves a record.
func TestPagesOrderAndStability(t *testing.T) {
	var nilStore *Pages[int]
	if nilStore.Len() != 0 {
		t.Fatal("nil store must read as empty")
	}
	var p Pages[int]
	const n = 2*pageSize + 3
	var held []*int
	for i := 0; i < n; i++ {
		r := p.Append(i)
		if i >= pageSize-1 && i%1000 == 0 {
			held = append(held, r)
		}
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := *p.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for _, r := range held {
		if r != p.At(*r) {
			t.Fatalf("record %d moved after it was appended", *r)
		}
	}
}

// TestEventStoreBytes: a run's event store allocates what it records — three
// pages of trace events cost at most 15% over the events themselves.
func TestEventStoreBytes(t *testing.T) {
	const n = 3 * pageSize
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	evs := new(Pages[TraceEvent])
	for i := 0; i < n; i++ {
		evs.Append(TraceEvent{Name: "packet", Cat: "net", Ph: "X", PID: i})
	}
	runtime.ReadMemStats(&m1)
	if evs.Len() != n || evs.At(n-1).PID != n-1 {
		t.Fatalf("store holds %d events", evs.Len())
	}
	floor := uint64(n) * uint64(unsafe.Sizeof(TraceEvent{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > floor*115/100 {
		t.Errorf("recording %d events allocated %d bytes, more than 1.15 x %d", n, got, floor)
	}
}
