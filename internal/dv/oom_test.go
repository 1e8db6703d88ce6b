package dv

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/vic"
)

// TestAllocBoundary pins the allocator at the exact top of SRAM: filling the
// heap to the last word succeeds, one more word fails with a typed
// *OOMError, and the failing request leaves the heap cursor untouched.
func TestAllocBoundary(t *testing.T) {
	tb := newTestbed(1)
	e := tb.eps[0]
	total := e.memLimit()
	if got := e.Alloc(total - 1); got != 0 {
		t.Fatalf("first Alloc base = %d, want 0", got)
	}
	if got := e.Alloc(1); got != uint32(total-1) {
		t.Fatalf("top-word Alloc base = %d, want %d", got, total-1)
	}
	if _, err := e.TryAlloc(1); err == nil {
		t.Fatal("TryAlloc past top of SRAM succeeded")
	} else {
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Fatalf("TryAlloc error is %T, want *OOMError", err)
		}
		if oom.Op != "Alloc" || oom.Words != 1 || oom.Limit != total {
			t.Fatalf("OOMError fields: %+v", oom)
		}
	}
	// TryAlloc(0) at the exact top is still legal (empty reservation).
	if _, err := e.TryAlloc(0); err != nil {
		t.Fatalf("TryAlloc(0) at top: %v", err)
	}
}

// TestAllocNoWraparound: a request big enough to wrap the uint32 heap cursor
// must fail typed, not hand out address 0 again.
func TestAllocNoWraparound(t *testing.T) {
	tb := newTestbed(1)
	e := tb.eps[0]
	e.Alloc(16)
	huge := int(^uint32(0)) // would wrap heapNext past 2^32
	if _, err := e.TryAlloc(huge); err == nil {
		t.Fatal("wrapping TryAlloc succeeded")
	}
	if _, err := e.TryAlloc(-1); err == nil {
		t.Fatal("negative TryAlloc succeeded")
	}
	if next, err := e.TryAlloc(1); err != nil || next != 16 {
		t.Fatalf("heap cursor disturbed by failed request: addr=%d err=%v", next, err)
	}
}

// mustPanicOOM runs fn and asserts it panics with a *OOMError naming op.
func mustPanicOOM(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s past top of SRAM did not panic", op)
		}
		oom, ok := r.(*OOMError)
		if !ok {
			t.Fatalf("%s panicked with %T (%v), want *OOMError", op, r, r)
		}
		if oom.Op != op {
			t.Fatalf("OOMError.Op = %q, want %q", oom.Op, op)
		}
	}()
	fn()
}

// TestPutBoundary: the addr+i word loops must reject transfers running past
// the top of SRAM — including bases near 2^32 that would silently wrap the
// 32-bit address arithmetic back to address 0.
func TestPutBoundary(t *testing.T) {
	tb := newTestbed(2)
	tb.spmd(func(e *Endpoint) {
		if e.Rank() != 0 {
			return
		}
		top := uint32(e.memLimit())
		// Exactly at the top: legal.
		e.Put(vic.PIO, 1, top-2, vic.NoGC, []uint64{7, 8})
		// One past: typed panic, before anything is sent.
		mustPanicOOM(t, "Put", func() {
			e.Put(vic.PIO, 1, top-1, vic.NoGC, []uint64{7, 8})
		})
		// uint32 wraparound base: addr+1 wraps to 0 without the 64-bit check.
		mustPanicOOM(t, "Put", func() {
			e.Put(vic.PIO, 1, ^uint32(0), vic.NoGC, []uint64{7, 8})
		})
		mustPanicOOM(t, "Read", func() { e.Read(top-1, 2) })
		mustPanicOOM(t, "WriteLocal", func() { e.WriteLocal(top-1, []uint64{1, 2}) })
	})
	tb.k.Run()
	// The legal top-of-SRAM write really landed.
	want := []uint64{7, 8}
	top := uint32(tb.eps[1].memLimit())
	for i, w := range want {
		if got := tb.eps[1].V.Peek(top - 2 + uint32(i)); got != w {
			t.Fatalf("top-of-SRAM word %d = %d, want %d", i, got, w)
		}
	}
}

// TestReliableWriteBoundary: the reliable path reports out-of-range as a
// typed error return (it has an error path), not a panic.
func TestReliableWriteBoundary(t *testing.T) {
	tb := newTestbed(2)
	tb.spmd(func(e *Endpoint) {
		if e.Rank() != 0 {
			return
		}
		err := e.ReliableWrite(1, ^uint32(0), []uint64{1, 2})
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Errorf("ReliableWrite wraparound error = %v, want *OOMError", err)
		}
	})
	tb.k.Run()
}

// TestWorstChunkWaitGeometric pins the reliable-layer wait bound to the
// geometric series the retry loop actually follows (timeout *= Backoff per
// attempt), at every supported backoff. The older linear
// MaxAttempts·Timeout·Backoff bound is asserted to underestimate the true
// worst case for Backoff ≥ 2, which made ReliableBarrier's deadline fire
// while a peer was still inside its legitimate retry budget.
func TestWorstChunkWaitGeometric(t *testing.T) {
	for backoff := 2; backoff <= 4; backoff++ {
		o := DefaultReliableOpts()
		o.Backoff = backoff
		// Geometric reference: sum of Timeout·Backoff^a for a in [0,MaxAttempts).
		want := sim.Time(0)
		term := o.Timeout
		for a := 0; a < o.MaxAttempts; a++ {
			want += o.QueryDelay + term
			term *= sim.Time(backoff)
		}
		got := o.worstChunkWait()
		if got != want {
			t.Errorf("Backoff=%d: worstChunkWait = %v, want %v", backoff, got, want)
		}
		linear := sim.Time(o.MaxAttempts) * o.Timeout * sim.Time(backoff)
		if got <= linear {
			t.Errorf("Backoff=%d: geometric bound %v not above old linear bound %v", backoff, got, linear)
		}
	}
	// Backoff=1 degenerates to the linear bound plus the query gaps.
	o := DefaultReliableOpts()
	o.Backoff = 1
	want := sim.Time(o.MaxAttempts) * (o.Timeout + o.QueryDelay)
	if got := o.worstChunkWait(); got != want {
		t.Errorf("Backoff=1: worstChunkWait = %v, want %v", got, want)
	}
}
