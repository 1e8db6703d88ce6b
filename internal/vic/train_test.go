package vic

// The receive train: a VIC's pending executions wait in its own FIFO and
// only the head is a kernel event. The oracle below queues every execution
// in the kernel at arrival instead, as Receive did before it had a train; a
// train run must execute the same words at the same (at, seq), on every
// fabric a cluster wires VICs to.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// perEvent is one execution the oracle queued in the kernel at arrival.
type perEvent struct {
	v *VIC
	r rxRec
}

// rxKeyed is an accepted record with the key its execution fires under.
type rxKeyed struct {
	at  sim.Time
	seq uint64
	r   rxRec
}

// receivePerEvent is the test-only oracle for the receive train: Receive's
// acceptance (the same counting, the same corrupt drop, the same key drawn
// at arrival), but the execution is a kernel event of its own, queued now.
func receivePerEvent(v *VIC, pkt dvswitch.Packet) (rxKeyed, bool) {
	r, ok := v.accept(&pkt)
	if !ok {
		return rxKeyed{}, false
	}
	e := rxKeyed{v.k.Now() + v.par.ProcDelay, v.k.ReserveSeq(), r}
	v.k.AtArgSeq(e.at, e.seq, firePerEvent, &perEvent{v: v, r: r})
	return e, true
}

func firePerEvent(a any) {
	e := a.(*perEvent)
	e.v.execute(&e.r)
}

// execLog is a Checker that logs every VIC state transition with the
// instant and the VIC it happened on: the executions, in the order they ran.
type execLog struct {
	k     *sim.Kernel
	lines []string
}

func (c *execLog) log(v *VIC, args ...any) {
	c.lines = append(c.lines, fmt.Sprintln(append([]any{c.k.Now(), v.ID}, args...)...))
}

func (c *execLog) GCUpdate(v *VIC, gc int, val int64, armed bool) { c.log(v, "gc", gc, val, armed) }
func (c *execLog) FIFOPush(v *VIC, src int, val uint64, dropped bool) {
	c.log(v, "push", src, val, dropped)
}
func (c *execLog) FIFOPop(v *VIC, val uint64)                { c.log(v, "pop", val) }
func (c *execLog) MemWrite(v *VIC, addr uint32, val uint64)  { c.log(v, "mem", addr, val) }
func (c *execLog) HostSent(v *VIC, mode SendMode, words int) { c.log(v, "sent", int(mode), words) }
func (c *execLog) HostRead(v *VIC, words int)                { c.log(v, "read", words) }
func (c *execLog) HostWrote(v *VIC, words int)               { c.log(v, "wrote", words) }
func (c *execLog) FIFODrained(v *VIC, words int)             { c.log(v, "drained", words) }

// waitingRx checks that nothing behind a train's head is overdue (sim.Train
// itself refuses a key below its tail's) and returns the number of entries
// waiting behind a head.
func waitingRx(t *testing.T, k *sim.Kernel, vics []*VIC) (n int) {
	t.Helper()
	for _, v := range vics {
		for i := 1; i < v.rx.Len(); i++ {
			if at, seq, _ := v.rx.At(i); at < k.Now() {
				t.Fatalf("vic %d: entry seq %d due at %v still waits at %v", v.ID, seq, at, k.Now())
			}
			n++
		}
	}
	return n
}

// rxRun is what one receive-train run shows: the keys drawn at arrival, the
// executions, the kernel's counts and depth, and the VICs' final state.
type rxRun struct {
	keys, execs []string
	events      uint64
	peak        int
	waiting     int
	state       []byte
}

// rxTrafficRun has four VICs (ports 0, 4, 8, 12 of a 16-port switch) each
// send 400 words by cached DMA and 50 by direct write to the other three —
// writes that decrement counters, surprise words, counter decrements and
// queries whose replies go to a third VIC — while each host drains its
// surprise FIFO, on fabric fab, receiving through the train or through the
// per-event oracle. ProcDelay is 25 times the default, so words land far
// faster than they execute and trains stack hundreds deep.
func rxTrafficRun(t *testing.T, fab int, oracle bool) rxRun {
	t.Helper()
	k := sim.NewKernel()
	f := recordFabrics[fab].make(k, dvswitch.ForPorts(16))
	var run rxRun
	vics := make([]*VIC, 4)
	chk := &execLog{k: k}
	par := DefaultParams()
	par.ProcDelay *= 25
	for i := range vics {
		v := New(k, i, 4+i, par, f.Inject) // a rail at ports 4-7
		vics[i] = v
		v.SetBatchInject(f.InjectBatch)
		v.ShareScratch(vics[0])
		v.SetChecker(chk)
	}
	f.OnDeliver(func(pkt dvswitch.Packet) {
		v := vics[pkt.Dst-4]
		var e rxKeyed
		var ok bool
		if oracle {
			e, ok = receivePerEvent(v, pkt)
		} else {
			n := v.rx.Len()
			v.Receive(pkt)
			if ok = v.rx.Len() > n; ok {
				e.at, e.seq, e.r = v.rx.At(v.rx.Len() - 1)
			}
			run.waiting = max(run.waiting, waitingRx(t, k, vics))
		}
		if ok {
			run.keys = append(run.keys, fmt.Sprintf("%v vic%d (%v,%d) src%d h%x p%x f%d",
				k.Now(), v.ID, e.at, e.seq, e.r.src, e.r.header, e.r.payload, e.r.flow))
		}
	})
	for i := range vics {
		k.Spawn(fmt.Sprint("host", i), func(p *sim.Proc) {
			v := vics[i]
			words := make([]Word, 400)
			for j := range words {
				w := sendWord(i*1000 + j)
				w.Dst = (i + 1 + j%3) % 4
				switch {
				case j%11 == 5:
					w.Op, w.GC, w.Addr = OpQuery, NoGC, uint32(j%64)
					w.Val = EncodeHeader((i+2)%4, OpWrite, NoGC, uint32(2000+j))
				case j%13 == 7:
					w.Op, w.GC, w.Addr, w.Val = OpDecGC, NoGC, 9, 1
				}
				words[j] = w
			}
			v.HostSend(p, DMACached, words)
			v.HostSend(p, PIO, words[:50])
			for {
				if _, ok := v.PopSurprise(p, 5*sim.Microsecond); !ok {
					return
				}
			}
		})
	}
	k.Run()
	if !oracle {
		for _, v := range vics {
			if v.rx.Len() != 0 {
				t.Errorf("vic %d: %d entries left on the train after the run", v.ID, v.rx.Len())
			}
		}
	}
	run.execs = chk.lines
	run.events, _ = k.Counts()
	run.peak = k.PeakPending()
	run.state = state(vics)
	return run
}

// TestReceiveTrainMatchesPerEvent: on the cycle-accurate engine, the fast
// model and two fast-model planes, the train draws the same keys at the same
// arrivals as the oracle that queues each execution at arrival, executes the
// same words in the same order at the same instants, fires the same number of
// kernel events and ends in the same VIC state — while hundreds of
// executions wait behind train heads, out of the kernel's queue.
func TestReceiveTrainMatchesPerEvent(t *testing.T) {
	for fab := range recordFabrics {
		t.Run(recordFabrics[fab].name, func(t *testing.T) {
			want := rxTrafficRun(t, fab, true)
			got := rxTrafficRun(t, fab, false)
			for _, c := range []struct {
				what      string
				got, want []string
			}{{"key", got.keys, want.keys}, {"execution", got.execs, want.execs}} {
				if len(c.got) != len(c.want) {
					t.Fatalf("%d %ss, oracle has %d", len(c.got), c.what, len(c.want))
				}
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Fatalf("%s %d is %q, oracle has %q", c.what, i, c.got[i], c.want[i])
					}
				}
			}
			if got.events != want.events {
				t.Errorf("fired %d kernel events, oracle fired %d", got.events, want.events)
			}
			if !bytes.Equal(got.state, want.state) {
				t.Error("the VICs' final state differs from the oracle's")
			}
			if got.waiting < 200 {
				t.Errorf("at most %d executions waited behind a train head; the traffic should stack hundreds", got.waiting)
			}
			if got.peak >= want.peak {
				t.Errorf("%d kernel events pending at peak, oracle %d: the train saved nothing", got.peak, want.peak)
			}
			t.Logf("%d receives; peak kernel depth %d with trains, %d per event; %d entries waiting at once",
				len(got.keys), got.peak, want.peak, got.waiting)
		})
	}
}
