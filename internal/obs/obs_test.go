package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	h := r.Histogram("z")
	h.Observe(9)
	r.CounterFunc("x", func() int64 { return 1 })
	r.HistogramFunc("z", func() (int64, int64, int64, *[HistBuckets]int64) { return 1, 1, 1, nil })
	if h != nil || r.CounterValue("x") != 0 {
		t.Fatal("a nil registry should hold nothing")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryDedupsByName(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("same"), r.Counter("same")
	if a != b {
		t.Fatal("same name must return same counter")
	}
	a.Inc()
	if r.CounterValue("same") != 1 {
		t.Fatal("CounterValue should see the increment")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 100, 1 << 45} {
		h.Observe(v)
	}
	if h.count != 9 {
		t.Fatalf("count = %d, want 9", h.count)
	}
	if h.max != 1<<45 {
		t.Fatalf("max = %d", h.max)
	}
	// 0 and 1 share bucket 0; 2^45 is clamped into the last bucket.
	want := map[int]int64{0: 2, 1: 2, 2: 2, 3: 1, 6: 1, HistBuckets - 1: 1}
	for i := 0; i < HistBuckets; i++ {
		if got := h.buckets[i]; got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

// TestViewsCombineByName registers views of two owners and an instrument
// under the same names: counts, sums and buckets add, the maximum is the
// largest, and a view is read when the registry is, not when it is
// registered.
func TestViewsCombineByName(t *testing.T) {
	r := NewRegistry()
	var a, b int64
	r.CounterFunc("n_total", func() int64 { return a })
	r.CounterFunc("n_total", func() int64 { return b })
	r.Counter("n_total").Inc()
	var hist [HistBuckets]int64
	hist[Log2Bucket(3)], hist[Log2Bucket(900)] = 1, 1
	view := func() (int64, int64, int64, *[HistBuckets]int64) { return 2, 903, 900, &hist }
	r.HistogramFunc("lat", view)
	r.HistogramFunc("lat", view)
	r.Histogram("lat").Observe(1000)
	a, b = 2, 5
	if got := r.CounterValue("n_total"); got != 8 {
		t.Fatalf("n_total = %d, want 8", got)
	}
	h := r.hists["lat"].read()
	if h.count != 5 || h.sum != 2806 || h.max != 1000 || h.buckets[1] != 2 || h.buckets[9] != 3 {
		t.Fatalf("combined histogram: count %d sum %d max %d buckets %v", h.count, h.sum, h.max, h.buckets)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		r.Counter("b_total").Inc()
		r.Counter("b_total").Inc()
		r.Counter("a_total").Inc()
		h := r.Histogram("h")
		h.Observe(1)
		h.Observe(5)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := mk()
	if out != mk() {
		t.Fatal("output not deterministic across identical registries")
	}
	want := `# TYPE a_total counter
a_total 1
# TYPE b_total counter
b_total 2
# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="4"} 1
h_bucket{le="8"} 2
h_bucket{le="+Inf"} 2
h_sum 6
h_count 2
`
	if out != want {
		t.Fatalf("prometheus dump:\n%s\nwant:\n%s", out, want)
	}
}

func TestSamplerTicksOnDaemonEvents(t *testing.T) {
	k := sim.NewKernel()
	var work int
	s := NewSampler(k, 10*sim.Nanosecond)
	s.Column("work", func() float64 { return float64(work) })
	s.Start()
	k.At(5*sim.Nanosecond, func() { work = 1 })
	k.At(25*sim.Nanosecond, func() { work = 2 })
	k.Run()
	s.SampleNow()
	rows := s.Series().Rows
	// Samples at t=0 (work 0), t=10 (1), t=20 (1), then the forced final
	// sample at t=25 (2). The daemon tick queued for t=30 must not have
	// kept the run alive.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	wantT := []sim.Time{0, 10 * sim.Nanosecond, 20 * sim.Nanosecond, 25 * sim.Nanosecond}
	wantV := []float64{0, 1, 1, 2}
	for i := range rows {
		if rows[i].T != wantT[i] || rows[i].V[0] != wantV[i] {
			t.Fatalf("row %d = {%v %v}, want {%v %v}", i, rows[i].T, rows[i].V[0], wantT[i], wantV[i])
		}
	}
	// A second forced sample at the same instant replaces, not appends.
	work = 3
	s.SampleNow()
	rows = s.Series().Rows
	if len(rows) != 4 || rows[3].V[0] != 3 {
		t.Fatalf("duplicate-instant sample should replace: %+v", rows)
	}
}

func TestSeriesJSONLDeterministic(t *testing.T) {
	s := &Series{
		Cols: []string{"a", "b"},
		Rows: []SampleRow{
			{T: 0, V: []float64{1, 0.25}},
			{T: 1500 * sim.Nanosecond, V: []float64{2, 0}},
		},
	}
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"t_us":0.000,"a":1,"b":0.25}
{"t_us":1.500,"a":2,"b":0}
`
	if sb.String() != want {
		t.Fatalf("jsonl:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	var sb strings.Builder
	var evs Pages[TraceEvent]
	evs.Append(TraceEvent{Name: "packet", Cat: "net", Ph: "X", TS: 1.5, Dur: 0.25, PID: 0, TID: 3,
		Args: PacketArgs{Src: 3, Dst: 9, Bytes: 16, Hops: 7, Deflections: 2}})
	evs.Append(TraceEvent{Name: "phase:updates", Cat: "phase", Ph: "X", TS: 0, Dur: 10, PID: 1, TID: 0})
	if err := WriteChromeTrace(&sb, &evs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `{"traceEvents":[
{"name":"packet","cat":"net","ph":"X","ts":1.500,"dur":0.250,"pid":0,"tid":3,"args":{"src":3,"dst":9,"bytes":16,"hops":7,"deflections":2}},
{"name":"phase:updates","cat":"phase","ph":"X","ts":0.000,"dur":10.000,"pid":1,"tid":0,"args":{"src":0,"dst":0,"bytes":0,"hops":0,"deflections":0}}
],"displayTimeUnit":"ns"}
`
	if out != want {
		t.Fatalf("chrome trace:\n%s\nwant:\n%s", out, want)
	}
	// Empty event list still produces a valid object.
	sb.Reset()
	if err := WriteChromeTrace(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n" {
		t.Fatalf("empty trace: %q", sb.String())
	}
}
