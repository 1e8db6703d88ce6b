package vic

// Streamed-vs-slice send differential: HostSendN over a word generator must
// be indistinguishable from HostSend over the same words in a slice, on both
// boundaries, in every send mode, at the DMA chunk and table edges — and it
// must call the generator exactly once per word, in order, as each word
// crosses PCIe (a DMA mode) or at most one PIO block ahead of it (a PIO
// mode) rather than all up front. A persistent DMA program shares the
// DMA chunk body, so its batched Trigger is held against the scalar one the
// same way.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// recChecker logs every checker call, in order.
type recChecker struct{ calls []string }

func (c *recChecker) log(args ...any) { c.calls = append(c.calls, fmt.Sprintln(args...)) }

func (c *recChecker) GCUpdate(_ *VIC, gc int, val int64, armed bool) { c.log("gc", gc, val, armed) }
func (c *recChecker) FIFOPush(_ *VIC, src int, val uint64, dropped bool) {
	c.log("push", src, val, dropped)
}
func (c *recChecker) FIFOPop(_ *VIC, val uint64)                { c.log("pop", val) }
func (c *recChecker) MemWrite(_ *VIC, addr uint32, val uint64)  { c.log("mem", addr, val) }
func (c *recChecker) HostSent(_ *VIC, mode SendMode, words int) { c.log("sent", int(mode), words) }
func (c *recChecker) HostRead(_ *VIC, words int)                { c.log("read", words) }
func (c *recChecker) HostWrote(_ *VIC, words int)               { c.log("wrote", words) }
func (c *recChecker) FIFODrained(_ *VIC, words int)             { c.log("drained", words) }

// sendWord is word i of the differential's batch. Destination, opcode,
// counter, address and payload all vary with i, so a reordered, repeated or
// skipped word changes the packets.
func sendWord(i int) Word {
	w := Word{Dst: i % 7, Op: OpWrite, GC: i % 5, Addr: uint32(i), Val: uint64(i)*0x9e3779b97f4a7c15 + 1}
	if i%3 == 0 {
		w.Op, w.GC, w.Addr = OpFIFO, NoGC, 0
	}
	return w
}

// sendTrace is everything one send shows outside the VIC: the fabric packets
// in injection order and the instant each was injected, the VIC's Stats, the
// checker's calls and the attribution flows.
type sendTrace struct {
	pkts   []dvswitch.Packet
	fireAt []sim.Time
	stats  Stats
	calls  []string
	flows  []attr.Flow
}

// traceRun runs send on a fresh VIC (VIC 3 at port 7, so its rail starts at
// port 4; checker and tracer attached) that injects into a recording sink
// fabric, on the scalar or the batched boundary.
func traceRun(scalar bool, send func(v *VIC, p *sim.Proc)) (tr sendTrace) {
	k := sim.NewKernel()
	sink := func(pkt dvswitch.Packet) {
		tr.pkts = append(tr.pkts, pkt)
		tr.fireAt = append(tr.fireAt, k.Now())
	}
	v := New(k, 3, 7, DefaultParams(), sink)
	v.SetScalarBoundary(scalar)
	if !scalar {
		v.SetBatchInject(func(pkts []dvswitch.Packet) {
			for _, pkt := range pkts {
				sink(pkt)
			}
		})
	}
	chk := &recChecker{}
	v.SetChecker(chk)
	tracer := attr.NewTracer(&attr.Config{}, dvswitch.WireBytes)
	v.SetAttr(tracer)
	k.Spawn("host", func(p *sim.Proc) { send(v, p) })
	k.Run()
	tr.stats, tr.calls = v.Stats(), chk.calls
	for i := range tracer.Len() {
		tr.flows = append(tr.flows, *tracer.At(i))
	}
	return tr
}

// sendWords returns sendWord(0..n-1) as a slice.
func sendWords(n int) []Word {
	words := make([]Word, n)
	for i := range words {
		words[i] = sendWord(i)
	}
	return words
}

// traceSend sends n sendWords through traceRun. With streamed set it uses
// HostSendN and returns the instant of every word(i) call, failing t if a
// call is not the next index; otherwise HostSend over a slice.
func traceSend(t *testing.T, mode SendMode, n int, scalar, streamed bool) (tr sendTrace, callAt []sim.Time) {
	tr = traceRun(scalar, func(v *VIC, p *sim.Proc) {
		if !streamed {
			v.HostSend(p, mode, sendWords(n))
			return
		}
		var w Word // one variable for every call, as the contract allows
		v.HostSendN(p, mode, n, func(i int) *Word {
			if i != len(callAt) {
				t.Errorf("word(%d) called after %d calls: want each i once, ascending", i, len(callAt))
			}
			callAt = append(callAt, p.Now())
			w = sendWord(i)
			return &w
		})
	})
	return tr, callAt
}

// requireSameTrace fails t unless got shows exactly what want shows.
func requireSameTrace(t *testing.T, want, got sendTrace) {
	t.Helper()
	if !reflect.DeepEqual(got.pkts, want.pkts) {
		t.Fatal("different packets injected, or in a different order")
	}
	if !reflect.DeepEqual(got.fireAt, want.fireAt) {
		t.Fatal("packets injected at different instants")
	}
	if got.stats != want.stats {
		t.Fatalf("stats differ:\nwant: %+v\ngot:  %+v", want.stats, got.stats)
	}
	if !reflect.DeepEqual(got.calls, want.calls) {
		t.Fatalf("checker calls differ:\nwant: %q\ngot:  %q", want.calls, got.calls)
	}
	if !reflect.DeepEqual(got.flows, want.flows) {
		t.Fatal("attribution flows differ")
	}
}

// TestHostSendNMatchesHostSend: n ∈ {0, 1, 1023, 1024, 1025, 8193} straddles
// one DMA chunk (1024 words) and one DMA table (8192 entries).
func TestHostSendNMatchesHostSend(t *testing.T) {
	procDelay := DefaultParams().ProcDelay
	for _, scalar := range []bool{false, true} {
		for _, mode := range []SendMode{PIO, PIOCached, DMA, DMACached} {
			for _, n := range []int{0, 1, 1023, 1024, 1025, 8193} {
				t.Run(fmt.Sprintf("scalar=%v/mode=%d/n=%d", scalar, int(mode), n), func(t *testing.T) {
					want, _ := traceSend(t, mode, n, scalar, false)
					got, callAt := traceSend(t, mode, n, scalar, true)
					if len(want.pkts) != n || len(callAt) != n {
						t.Fatalf("HostSend injected %d packets and word was called %d times, want %d each",
							len(want.pkts), len(callAt), n)
					}
					requireSameTrace(t, want, got)
					// Streamed, not pre-read: word i is generated no later
					// than its own crossing (injection = crossing done +
					// ProcDelay) and after the crossing `ahead` words before
					// it has completed: the one before it on a DMA mode, the
					// one a PIO block (pioBlock words) before it on a PIO mode.
					ahead := 1
					if mode == PIO || mode == PIOCached {
						ahead = pioBlock
					}
					for i, at := range callAt {
						if at+procDelay > got.fireAt[i] || (i >= ahead && at+procDelay < got.fireAt[i-ahead]) {
							t.Fatalf("word(%d) called at %v; packets %d and %d were injected at %v and %v",
								i, at, max(i-ahead, 0), i, got.fireAt[max(i-ahead, 0)], got.fireAt[i])
						}
					}
				})
			}
		}
	}
}

// TestTriggerBatchedMatchesScalar: a DMA program's payload stream lands one
// pooled event per chunk on the batched boundary and one event per word on
// the scalar reference, and the two must be indistinguishable — on the first
// (staging) Trigger and on a re-trigger with fresh payloads, at the DMA
// chunk and table edges.
func TestTriggerBatchedMatchesScalar(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 8193} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			trigger := func(v *VIC, p *sim.Proc) {
				pr := v.NewDMAProgram(sendWords(n))
				pr.Trigger(p)
				for i := range n {
					pr.SetPayload(i, ^uint64(i))
				}
				pr.Trigger(p)
			}
			want := traceRun(true, trigger)
			got := traceRun(false, trigger)
			if len(want.pkts) != 2*n {
				t.Fatalf("scalar triggers injected %d packets, want %d", len(want.pkts), 2*n)
			}
			requireSameTrace(t, want, got)
		})
	}
}

// TestVICClosesSRAMStage: a traced packet's SRAM stage closes when the VIC
// hands it to the fabric — ProcDelay after a host word's PCIe crossing, and
// ProcDelay after the kick for a VIC-issued counter decrement — on both
// boundaries, with no fabric or cluster doing it, and every packet goes to
// its destination's port on the VIC's rail, not to the port numbered by its
// VIC id.
func TestVICClosesSRAMStage(t *testing.T) {
	pd := DefaultParams().ProcDelay
	for _, scalar := range []bool{false, true} {
		tr := traceRun(scalar, func(v *VIC, p *sim.Proc) {
			v.HostSend(p, PIO, sendWords(3))
			v.HostSend(p, DMA, sendWords(5))
			v.InjectDecGC(p, 1, 9)
		})
		if len(tr.flows) != 9 || len(tr.pkts) != 9 {
			t.Fatalf("scalar=%v: %d flows and %d packets, want 9 of each", scalar, len(tr.flows), len(tr.pkts))
		}
		for i, f := range tr.flows {
			if f.Dur[attr.StageSRAM] != pd {
				t.Errorf("scalar=%v: flow %d (kind %v) spent %v in SRAM, want the processing delay %v",
					scalar, i, f.Kind, f.Dur[attr.StageSRAM], pd)
			}
		}
		for _, pkt := range tr.pkts {
			if dst, _, _, _ := DecodeHeader(pkt.Header); pkt.Dst != 4+dst {
				t.Errorf("scalar=%v: VIC id %d went to port %d, want the rail's port %d", scalar, dst, pkt.Dst, 4+dst)
			}
		}
	}
}
