package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecordAndSummary(t *testing.T) {
	l := &Log{
		States:   []StateRec{{0, "compute", 0, 10 * us}, {1, "comm", 5 * us, 20 * us}},
		Messages: []MsgRec{{0, 1, us, 2 * us, 64}},
	}
	states, msgs, span := l.Summary()
	if states != 2 || msgs != 1 {
		t.Fatalf("summary %d %d", states, msgs)
	}
	if span != 20*us {
		t.Fatalf("span %v", span)
	}
}

func TestWriteCSVSortedSections(t *testing.T) {
	l := &Log{
		States:   []StateRec{{1, "late", 30 * us, 40 * us}, {0, "early", us, 2 * us}},
		Messages: []MsgRec{{2, 3, 9 * us, 10 * us, 16}, {1, 0, 4 * us, 5 * us, 8}},
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# states") || !strings.Contains(out, "# messages") {
		t.Fatalf("missing sections:\n%s", out)
	}
	// Sorted by start time within each section.
	if strings.Index(out, "0,early") > strings.Index(out, "1,late") {
		t.Fatal("states not sorted")
	}
	if strings.Index(out, "1,0,4.000") > strings.Index(out, "2,3,9.000") {
		t.Fatal("messages not sorted")
	}
}

func TestRenderASCII(t *testing.T) {
	l := &Log{States: []StateRec{{0, "compute", 0, 40 * us}, {1, "comm", 20 * us, 80 * us}}}
	for i := 0; i < 5; i++ {
		l.Messages = append(l.Messages, MsgRec{0, 1, sim.Time(i) * 10 * us, sim.Time(i+1) * 10 * us, 8})
	}
	var buf bytes.Buffer
	if err := l.RenderASCII(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node 0") || !strings.Contains(out, "node 1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "~") {
		t.Fatalf("missing state glyphs:\n%s", out)
	}
	if !strings.Contains(out, "msgs") {
		t.Fatalf("missing message lane:\n%s", out)
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := new(Log).RenderASCII(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

func TestWriteParaver(t *testing.T) {
	l := &Log{
		States:   []StateRec{{0, "compute", 0, 10 * us}, {1, "mpi-wait", 2 * us, 6 * us}},
		Messages: []MsgRec{{0, 1, us, 3 * us, 64}},
	}
	var prv, pcf, row bytes.Buffer
	if err := l.WriteParaver(&prv, &pcf, &row); err != nil {
		t.Fatal(err)
	}
	out := prv.String()
	if !strings.HasPrefix(out, "#Paraver") {
		t.Fatalf("missing header:\n%s", out)
	}
	// State record for node 0: task 1, 0..10000 ns, state 1 (compute).
	if !strings.Contains(out, "1:1:1:1:1:0:10000:1") {
		t.Fatalf("missing state record:\n%s", out)
	}
	// Comm record 0→1, 1000→3000 ns, 64 bytes.
	if !strings.Contains(out, "3:1:1:1:1:1000:1000:2:1:2:1:3000:3000:64:0") {
		t.Fatalf("missing comm record:\n%s", out)
	}
	if !strings.Contains(pcf.String(), "mpi-wait") {
		t.Fatal("pcf missing custom state")
	}
	if !strings.Contains(row.String(), "THREAD 1.2.1") {
		t.Fatal("row missing thread names")
	}
}

func TestWriteParaverSorted(t *testing.T) {
	l := &Log{States: []StateRec{{0, "compute", 5 * us, 6 * us}, {0, "compute", us, 2 * us}}}
	var prv bytes.Buffer
	if err := l.WriteParaver(&prv, nil, nil); err != nil {
		t.Fatal(err)
	}
	first := strings.Index(prv.String(), ":1000:2000:")
	second := strings.Index(prv.String(), ":5000:6000:")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("records not time sorted:\n%s", prv.String())
	}
}

// TestWritersIgnoreRecordOrder writes the same multiset of records in
// shuffled orders, ties on every time included, and requires every writer to
// produce identical bytes: the output is a function of the records, not of
// the order the run happened to record them in.
func TestWritersIgnoreRecordOrder(t *testing.T) {
	states := []StateRec{
		{0, "compute", 0, 3 * us}, {1, "compute", 0, 3 * us}, {1, "compute", 0, 2 * us},
		{2, "comm", 0, 3 * us}, {2, "compute", 0, 3 * us}, {0, "compute", 4 * us, 5 * us},
	}
	msgs := []MsgRec{
		{0, 1, us, us, 16}, {1, 0, us, us, 16}, {0, 2, us, us, 16}, {0, 1, us, 2 * us, 16},
		{0, 1, us, us, 8}, {2, 1, 2 * us, 2 * us, 16}, {1, 2, 2 * us, 2 * us, 16},
	}
	render := func(rng *rand.Rand) string {
		l := &Log{}
		for _, i := range rng.Perm(len(states)) {
			l.States = append(l.States, states[i])
		}
		for _, i := range rng.Perm(len(msgs)) {
			l.Messages = append(l.Messages, msgs[i])
		}
		var b bytes.Buffer
		for _, write := range []func() error{
			func() error { return l.WriteCSV(&b) },
			func() error { return l.WriteChrome(&b) },
			func() error { return l.WriteParaver(&b, &b, &b) },
			func() error { return l.RenderASCII(&b, 4) },
		} {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(1))
	want := render(rng)
	for i := 0; i < 20; i++ {
		if got := render(rng); got != want {
			t.Fatalf("shuffle %d changed the output:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
