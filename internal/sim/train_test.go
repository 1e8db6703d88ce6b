package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// trainRig is a yard of two trains of int records whose fired runs are
// logged as "time [ids]", time counted from base; onFire, when set, runs
// inside every fire after the log line.
type trainRig struct {
	k      *Kernel
	y      Yard[int]
	tr     [2]Train[int]
	base   Time
	log    []string
	onFire func(run []int)
}

func newTrainRig() *trainRig {
	r := &trainRig{k: NewKernel()}
	r.y.Init(r.k, func(run []int) {
		r.log = append(r.log, fmt.Sprint(int64(r.k.Now()-r.base), run))
		if r.onFire != nil {
			r.onFire(run)
		}
	})
	for i := range r.tr {
		r.tr[i].Init(&r.y)
	}
	return r
}

// add appends record id to train i at time at after base under a fresh
// sequence number.
func (r *trainRig) add(i int, at Time, id int) { r.tr[i].Append(r.base+at, r.k.ReserveSeq(), id) }

// join appends record id to the run at the tail of train i.
func (r *trainRig) join(i int, id int) {
	at, seq, ok := r.tr[i].Tail()
	if !ok {
		panic("join on an empty train")
	}
	r.tr[i].Append(at, seq, id)
}

// freePages counts the pages on the yard's free list.
func (r *trainRig) freePages() (n int) {
	for pg := r.y.free; pg != nil; pg = pg.next {
		n++
	}
	return n
}

// TestTrain_Valid runs trains through the orders they must keep: FIFO in both
// keys, runs, appends from inside a fire, page boundaries and page reuse. Each
// row gives the fired runs and the kernel events they took.
func TestTrain_Valid(t *testing.T) {
	long := func(r *trainRig) {
		// Two pages and a bit on train 0, a run across a page boundary on
		// train 1.
		for id := 0; id < 2*trainPageLen+3; id++ {
			r.add(0, Time(10+id), id)
		}
		r.add(1, 5, 100)
		for id := 101; id < 101+trainPageLen+2; id++ {
			r.join(1, id)
		}
	}
	var run []int
	for id := 100; id < 101+trainPageLen+2; id++ {
		run = append(run, id)
	}
	longLog := []string{fmt.Sprint(5, run)}
	for id := 0; id < 2*trainPageLen+3; id++ {
		longLog = append(longLog, fmt.Sprint(10+id, []int{id}))
	}
	tests := []struct {
		name   string
		setup  func(r *trainRig)
		want   []string
		events uint64
	}{
		{
			name: "FIFO in both keys across two trains",
			setup: func(r *trainRig) {
				r.add(0, 10, 1)
				r.add(0, 10, 2) // same time, later seq
				r.add(1, 10, 3) // same time, later seq, other train
				r.add(0, 20, 4)
				r.add(1, 15, 5)
			},
			want:   []string{"10 [1]", "10 [2]", "10 [3]", "15 [5]", "20 [4]"},
			events: 5,
		},
		{
			name: "a run of equal keys fires as one event",
			setup: func(r *trainRig) {
				r.add(0, 10, 1)
				r.join(0, 2)
				r.join(0, 3)
				r.add(0, 10, 4)
				r.join(0, 5)
			},
			want:   []string{"10 [1 2 3]", "10 [4 5]"},
			events: 2,
		},
		{
			name: "an append from inside a fire, to an emptied and to a waiting train",
			setup: func(r *trainRig) {
				r.add(0, 10, 1)
				r.add(1, 10, 2)
				r.add(1, 40, 3)
				r.onFire = func(run []int) {
					switch run[0] {
					case 1:
						r.add(0, 15, 10) // train 0 was emptied: armed now
						r.add(1, 50, 11) // behind 3, whose train is armed
					case 10:
						r.add(0, 15, 12) // due at once, after every key drawn before
					}
				}
			},
			want:   []string{"10 [1]", "10 [2]", "15 [10]", "15 [12]", "40 [3]", "50 [11]"},
			events: 6,
		},
		{
			name:   "a page boundary, a run across one, and the pages reused",
			setup:  long,
			want:   longLog,
			events: 2*trainPageLen + 4,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newTrainRig()
			tt.setup(r)
			r.k.Run()
			if !slices.Equal(r.log, tt.want) {
				t.Errorf("fired\n%s\nwant\n%s", strings.Join(r.log, "\n"), strings.Join(tt.want, "\n"))
			}
			if ev, _ := r.k.Counts(); ev != tt.events {
				t.Errorf("fired %d kernel events, want %d", ev, tt.events)
			}
			if p := r.k.PeakPending(); p > len(r.tr) {
				t.Errorf("%d kernel events pending at once, want at most one per train (%d)", p, len(r.tr))
			}
			for i := range r.tr {
				if n := r.tr[i].Len(); n != 0 {
					t.Errorf("train %d holds %d records after the run", i, n)
				}
			}
			// The drained pages are all on the free list; the same program
			// again fires the same runs and takes every page from there.
			pages := r.freePages()
			r.log, r.onFire, r.base = nil, nil, r.k.Now()
			tt.setup(r)
			r.k.Run()
			if !slices.Equal(r.log, tt.want) {
				t.Errorf("second pass fired\n%s\nwant\n%s", strings.Join(r.log, "\n"), strings.Join(tt.want, "\n"))
			}
			if got := r.freePages(); got != pages {
				t.Errorf("%d free pages after a second pass, %d after the first", got, pages)
			}
		})
	}
	t.Run("a warm yard allocates nothing", func(t *testing.T) {
		r := newTrainRig()
		r.y.Init(r.k, func([]int) {}) // no log
		long(r)
		r.k.Run()
		if a := testing.AllocsPerRun(20, func() { r.base = r.k.Now(); long(r); r.k.Run() }); a != 0 {
			t.Errorf("%.1f allocations per pass on a warm yard, want 0", a)
		}
	})
}

// TestTrain_Invalid holds Append to the train's order: a key below the
// tail's panics, naming both keys, and so does reading past the end.
func TestTrain_Invalid(t *testing.T) {
	tests := []struct {
		name        string
		do          func(r *trainRig)
		expectPanic string
	}{
		{
			name:        "a time below the tail's",
			do:          func(r *trainRig) { r.add(0, 20, 1); r.add(0, 10, 2) },
			expectPanic: "sim: Train.Append of key (10ps, 2) behind tail (20ps, 1)",
		},
		{
			name: "a sequence number below the tail's",
			do: func(r *trainRig) {
				early, late := r.k.ReserveSeq(), r.k.ReserveSeq()
				r.tr[0].Append(10, late, 1)
				r.tr[0].Append(10, early, 2)
			},
			expectPanic: "sim: Train.Append of key (10ps, 1) behind tail (10ps, 2)",
		},
		{
			name: "the tail's sequence number at another time",
			do: func(r *trainRig) {
				r.add(0, 10, 1)
				r.tr[0].Append(20, 1, 2)
			},
			expectPanic: "sim: Train.Append of key (20ps, 1) behind tail (10ps, 1)",
		},
		{
			name:        "a record read past the end",
			do:          func(r *trainRig) { r.add(0, 10, 1); r.tr[0].At(1) },
			expectPanic: "sim: Train.At(1) with 1 waiting",
		},
		{
			name:        "a sequence number never reserved",
			do:          func(r *trainRig) { r.tr[0].Append(10, 7, 1) },
			expectPanic: "sim: AtArgSeq with unreserved sequence number 7",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tt.expectPanic) {
					t.Errorf("panicked with %q, want %q", got, tt.expectPanic)
				}
			}()
			tt.do(newTrainRig())
		})
	}
}

// trainLockstep runs the op program prog over four trains of one yard, or,
// as the oracle, with every run queued in the kernel by AtArg when its first
// record is appended — what an owner did before it had a train. It returns
// the log of every event and the kernel's event count.
//
// Ops are read one byte at a time by whatever event runs, at most four per
// event: b&3 == 0 appends a record to train b>>2&3, due b>>4 * 3 after the
// later of now and the train's waiting tail; 1 joins the tail's run (a new
// record due now if nothing waits); 2 queues a plain event b>>2 from now,
// which reads ops in turn; 3 ends the event's ops.
func trainLockstep(prog []byte, oracle bool) (log []string, events uint64, peak int) {
	type orRun struct {
		ids   []int
		fired bool
	}
	k := NewKernel()
	var y Yard[int]
	var trains [4]Train[int]
	var lastAt [4]Time
	var last [4]*orRun
	pc := 0
	var step func()
	fired := func(run []int) {
		log = append(log, fmt.Sprint(int64(k.Now()), run))
		step()
	}
	y.Init(k, fired)
	for i := range trains {
		trains[i].Init(&y)
	}
	fireOracle := func(a any) {
		r := a.(*orRun)
		r.fired = true
		fired(r.ids)
	}
	waiting := func(i int) bool {
		if oracle {
			return last[i] != nil && !last[i].fired
		}
		_, _, ok := trains[i].Tail()
		return ok
	}
	appendNew := func(i int, at Time, id int) {
		lastAt[i] = at
		if oracle {
			last[i] = &orRun{ids: []int{id}}
			k.AtArg(at, fireOracle, last[i])
			return
		}
		trains[i].Append(at, k.ReserveSeq(), id)
	}
	step = func() {
		for n := 0; n < 4 && pc < len(prog); n++ {
			b, id := prog[pc], pc
			pc++
			i := int(b >> 2 & 3)
			switch b & 3 {
			case 0:
				base := k.Now()
				if waiting(i) {
					base = lastAt[i]
				}
				appendNew(i, base+Time(b>>4)*3, id)
			case 1:
				switch {
				case !waiting(i):
					appendNew(i, k.Now(), id)
				case oracle:
					last[i].ids = append(last[i].ids, id)
				default:
					at, seq, _ := trains[i].Tail()
					trains[i].Append(at, seq, id)
				}
			case 2:
				k.After(Time(b>>2), func() {
					log = append(log, fmt.Sprint(int64(k.Now()), " event ", id))
					step()
				})
			default:
				return
			}
		}
	}
	k.At(0, step)
	k.Run()
	events, _ = k.Counts()
	return log, events, k.PeakPending()
}

// FuzzTrainLockstep holds the train to the per-record AtArg it replaces: the
// same events, at the same instants, in the same order, with the same runs,
// and never more kernel events pending.
func FuzzTrainLockstep(f *testing.F) {
	f.Add([]byte{0x10, 0x14, 0x01, 0x05, 0x22, 0x30, 0x03, 0x41, 0x18, 0x0d})
	f.Add([]byte{0x00, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x00, 0x02, 0xf0})
	f.Add([]byte{0x0e, 0x06, 0x1a, 0x2c, 0x35, 0x09, 0xfc, 0x50, 0x11, 0x63, 0x24, 0x44})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 256 {
			t.Skip()
		}
		want, wantEv, wantPeak := trainLockstep(prog, true)
		got, gotEv, gotPeak := trainLockstep(prog, false)
		if !slices.Equal(got, want) {
			t.Fatalf("trains fired\n%s\nthe oracle\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if gotEv != wantEv {
			t.Errorf("trains fired %d kernel events, the oracle %d", gotEv, wantEv)
		}
		if gotPeak > wantPeak {
			t.Errorf("trains held %d kernel events at once, the oracle %d", gotPeak, wantPeak)
		}
	})
}
