package vic

// The host verbs that only wait run as chains (pioSend, hostXfer): each step
// at the event that would have resumed the process in the loop the verb used
// to be. The loops are kept here as test-only references, and a script of
// concurrent sends, reads and writes on three VICs over a real fabric is run
// both ways, event by event: the time and the queue's fingerprint after
// every event, the deliveries, Stats, checker calls, attribution flows and
// the words read must all agree, and only the resumes may fall.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// loopSendPIO is HostSendN's PIO path as a loop: the doorbell, then one park
// on the lane per word.
func loopSendPIO(v *VIC, p *sim.Proc, mode SendMode, n int, word func(i int) *Word) {
	v.st.PktsSent += int64(n)
	bytesPer := mode.WireBytes()
	v.st.PCIeBytesOut += int64(n * bytesPer)
	if v.chk != nil {
		v.chk.HostSent(v, mode, n)
	}
	issue := p.Now()
	p.Wait(v.par.PIOLatency)
	for i := range n {
		w := *word(i)
		var fl uint32
		if v.attr != nil {
			fl = v.attr.Begin(v.ID, w.Dst, kindForOp(w.Op), issue)
		}
		done := v.pioWr.Occupy(p, sim.BytesAt(bytesPer, v.par.PIOWriteBW))
		if v.attr != nil {
			v.attr.Stamp(fl, attr.StageHostTx, done)
		}
		if v.scalar {
			v.injectAt(done, w, fl)
		} else {
			v.injectBatchAt(done, &w, fl)
		}
	}
}

// loopRead is a DV Memory→host DMA as a loop: the waits in pre, then the
// lane, then the accounting and the copy.
func loopRead(v *VIC, p *sim.Proc, dst []uint64, addr uint32, pre ...sim.Time) {
	for _, d := range pre {
		p.Wait(d)
	}
	v.dmaOut.Occupy(p, sim.BytesAt(len(dst)*8, v.par.DMABW))
	v.st.PCIeBytesIn += int64(len(dst) * 8)
	if v.chk != nil {
		v.chk.HostRead(v, len(dst))
	}
	v.mem.readInto(dst, addr)
}

// loopPull is ReadProgram.Pull as a loop.
func loopPull(rp *ReadProgram, p *sim.Proc, dst []uint64) {
	v := rp.v
	if !rp.staged {
		p.Wait(v.par.DMASetup)
		rp.staged = true
	}
	loopRead(v, p, dst, rp.addr, v.par.PIOLatency)
}

// loopPIORead is PIOReadInto as a loop.
func loopPIORead(v *VIC, p *sim.Proc, dst []uint64, addr uint32) {
	n := len(dst)
	p.Wait(v.par.PIOLatency)
	v.pioRd.Occupy(p, sim.BytesAt(n*8, v.par.PIOReadBW))
	v.st.PCIeBytesIn += int64(n * 8)
	if v.chk != nil {
		v.chk.HostRead(v, n)
	}
	v.mem.readInto(dst, addr)
}

// loopWriteMemDMA is HostWriteMemDMA as a loop.
func loopWriteMemDMA(v *VIC, p *sim.Proc, addr uint32, vals []uint64) {
	p.Wait(v.par.PIOLatency + v.par.DMASetup)
	v.dmaIn.Occupy(p, sim.BytesAt(len(vals)*8, v.par.DMABW))
	v.st.PCIeBytesOut += int64(len(vals) * 8)
	if v.chk != nil {
		v.chk.HostWrote(v, len(vals))
	}
	v.mem.writeRange(addr, vals)
}

// verbs runs a host verb as the product does (chained) or as its loop.
type verbs struct{ chained bool }

func (h verbs) sendN(v *VIC, p *sim.Proc, mode SendMode, n int, word func(i int) *Word) {
	if h.chained {
		v.HostSendN(p, mode, n, word)
	} else {
		loopSendPIO(v, p, mode, n, word)
	}
}

func (h verbs) readInto(v *VIC, p *sim.Proc, dst []uint64, addr uint32) {
	if h.chained {
		v.DMAReadInto(p, dst, addr)
	} else {
		loopRead(v, p, dst, addr, v.par.PIOLatency+v.par.DMASetup)
	}
}

func (h verbs) pull(rp *ReadProgram, p *sim.Proc, dst []uint64) {
	if h.chained {
		rp.Pull(p, dst)
	} else {
		loopPull(rp, p, dst)
	}
}

func (h verbs) pioRead(v *VIC, p *sim.Proc, dst []uint64, addr uint32) {
	if h.chained {
		v.PIOReadInto(p, dst, addr)
	} else {
		loopPIORead(v, p, dst, addr)
	}
}

func (h verbs) writeMem(v *VIC, p *sim.Proc, addr uint32, vals []uint64) {
	if h.chained {
		v.HostWriteMemDMA(p, addr, vals)
	} else {
		loopWriteMemDMA(v, p, addr, vals)
	}
}

// lockstepRun is everything one way of running the script showed.
type lockstepRun struct {
	events         []string // time and queue fingerprint after each event
	delivered      []delivery
	stats          []Stats
	calls          []string
	flows          []attr.Flow
	read           [][]uint64 // every row read, in each process's order
	ends           []sim.Time // per process, when its script ended
	fired, resumes uint64
}

// runLockstep runs the script on three VICs of a 16-port fast-model fabric,
// one event at a time. VICs 0 and 1 each send n words by PIO and then n by
// cached PIO to the other two (writes, FIFO words and counter decrements),
// then read their memory back every way a host can; VIC 2 writes its
// memory, pulls it through a read program twice and reads it by DMA and PIO
// while the writes land.
func runLockstep(n int, chained, traced, scalar bool) lockstepRun {
	k := sim.NewKernel()
	fab := dvswitch.NewFastModel(k, dvswitch.ForPorts(16), dvswitch.DefaultCycleTime, sim.NewRNG(9))
	var run lockstepRun
	vics := make([]*VIC, 3)
	chk := &recChecker{}
	var tracer *attr.Tracer
	if traced {
		tracer = attr.NewTracer(&attr.Config{}, dvswitch.WireBytes)
	}
	for i := range vics {
		v := New(k, i, 5+i, DefaultParams(), fab.Inject) // a rail at ports 5-7
		vics[i] = v
		v.SetScalarBoundary(scalar)
		if !scalar {
			v.SetBatchInject(fab.InjectBatch)
			v.ShareScratch(vics[0])
		}
		v.SetChecker(chk)
		if tracer != nil {
			v.SetAttr(tracer)
		}
	}
	fab.OnDeliver(func(pkt dvswitch.Packet) {
		run.delivered = append(run.delivered, delivery{pkt, k.Now()})
		vics[pkt.Dst-5].Receive(pkt)
	})
	h := verbs{chained}
	run.ends = make([]sim.Time, 3)
	keep := func(row []uint64) { run.read = append(run.read, slices.Clone(row)) }
	for s := 0; s < 2; s++ {
		k.Spawn(fmt.Sprint("send", s), func(p *sim.Proc) {
			v := vics[s]
			var w Word
			for _, mode := range []SendMode{PIO, PIOCached} {
				h.sendN(v, p, mode, n, func(i int) *Word {
					w = sendWord(i + 100*s)
					w.Dst = (s + 1 + i%2) % 3
					if w.Op == OpWrite && i%4 == 1 {
						w.Op, w.GC, w.Addr, w.Val = OpDecGC, NoGC, 9, 1
					}
					return &w
				})
			}
			row := make([]uint64, 40)
			h.readInto(v, p, row, 0)
			keep(row)
			h.pioRead(v, p, row[:5], 3)
			keep(row[:5])
			rp := v.NewReadProgram(8, 16)
			h.pull(rp, p, row[:16])
			keep(row[:16])
			h.pull(rp, p, row[:16])
			keep(row[:16])
			run.ends[s] = p.Now()
		})
	}
	k.Spawn("reader", func(p *sim.Proc) {
		v := vics[2]
		vals := make([]uint64, 24)
		for i := range vals {
			vals[i] = uint64(i) * 0x51
		}
		h.writeMem(v, p, 50, vals)
		h.writeMem(v, p, 60, nil)
		rp := v.NewReadProgram(0, 64)
		row := make([]uint64, 64)
		for range 3 {
			h.pull(rp, p, row)
			keep(row)
			h.readInto(v, p, row[:10], 2)
			keep(row[:10])
			h.pioRead(v, p, row[:2], 0)
			keep(row[:2])
			h.readInto(v, p, row[:0], 0)
		}
		run.ends[2] = p.Now()
	})
	for k.RunUntilN(sim.Forever, 1) == 1 {
		q, fp := k.QueueFingerprint()
		run.events = append(run.events, fmt.Sprintf("%v q%d:%x", k.Now(), q, fp))
	}
	k.Finish()
	run.fired, run.resumes = k.Counts()
	for _, v := range vics {
		run.stats = append(run.stats, v.Stats())
	}
	run.calls = chk.calls
	if tracer != nil {
		for i := range tracer.Len() {
			run.flows = append(run.flows, *tracer.At(i))
		}
	}
	return run
}

// TestHostChainsMatchWaitLoops holds the PIO chain at one word, one block
// less one, one block, one block and one, and three blocks, with
// attribution on and off, on the batched and on the scalar boundary, and
// the read and write chains alongside, against the loops.
func TestHostChainsMatchWaitLoops(t *testing.T) {
	for _, n := range []int{1, pioBlock - 1, pioBlock, pioBlock + 1, 3 * pioBlock} {
		for _, traced := range []bool{false, true} {
			for _, scalar := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/attr=%v/scalar=%v", n, traced, scalar), func(t *testing.T) {
					want := runLockstep(n, false, traced, scalar)
					got := runLockstep(n, true, traced, scalar)
					for i := 0; i < len(want.events) && i < len(got.events); i++ {
						if got.events[i] != want.events[i] {
							t.Fatalf("after event %d: chained %s, loop %s", i, got.events[i], want.events[i])
						}
					}
					if len(got.events) != len(want.events) || got.fired != want.fired {
						t.Fatalf("chained run fired %d events (%d by Counts), loop %d (%d)",
							len(got.events), got.fired, len(want.events), want.fired)
					}
					if len(want.delivered) != 4*n {
						t.Fatalf("the loop delivered %d packets, want %d", len(want.delivered), 4*n)
					}
					if !reflect.DeepEqual(got.delivered, want.delivered) {
						t.Fatal("different deliveries")
					}
					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Fatalf("stats differ:\nwant %+v\ngot  %+v", want.stats, got.stats)
					}
					if !reflect.DeepEqual(got.calls, want.calls) {
						t.Fatalf("checker calls differ:\nwant %q\ngot  %q", want.calls, got.calls)
					}
					if traced && len(want.flows) == 0 {
						t.Fatal("no attribution flows recorded")
					}
					if !reflect.DeepEqual(got.flows, want.flows) {
						t.Fatal("attribution flows differ")
					}
					if !reflect.DeepEqual(got.read, want.read) || !slices.Equal(got.ends, want.ends) {
						t.Fatal("different words read, or read at different instants")
					}
					// Each sender: one resume per PIO block (two sends) and
					// one per read; the reader: one per verb.
					blocks := uint64(2 * ((n + pioBlock - 1) / pioBlock))
					if wantRes := 3 + 2*(blocks+4) + 2 + 3*4; got.resumes != wantRes {
						t.Errorf("chained run made %d resumes, want %d (the loop made %d)", got.resumes, wantRes, want.resumes)
					}
				})
			}
		}
	}
}
