package bench

import (
	"bytes"
	"strings"
	"testing"
)

var small = Options{Small: true}

func checkTable(t *testing.T, tb *Table, minRows int) {
	t.Helper()
	if len(tb.Rows) < minRows {
		t.Fatalf("%s: %d rows, want >= %d", tb.ID, len(tb.Rows), minRows)
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Columns) {
			t.Fatalf("%s: row %v does not match columns %v", tb.ID, r, tb.Columns)
		}
		for _, c := range r {
			if c.String() == "" {
				t.Fatalf("%s: empty cell in %v", tb.ID, r)
			}
		}
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), tb.ID) {
		t.Fatalf("%s: Fprint missing header", tb.ID)
	}
}

func TestFig3a(t *testing.T) { checkTable(t, Fig3a(small), 5) }
func TestFig3b(t *testing.T) { checkTable(t, Fig3b(small), 5) }
func TestFig4(t *testing.T)  { checkTable(t, Fig4(small), 2) }
func TestFig7(t *testing.T)  { checkTable(t, Fig7(small), 2) }
func TestFig8(t *testing.T)  { checkTable(t, Fig8(small), 2) }
func TestFig9(t *testing.T)  { checkTable(t, Fig9(small), 3) }

func TestFig5WritesTrace(t *testing.T) {
	var buf bytes.Buffer
	tb := Fig5(small, &buf)
	checkTable(t, tb, 3)
	out := buf.String()
	if !strings.Contains(out, "# states") || !strings.Contains(out, "# messages") {
		t.Fatal("trace CSV missing sections")
	}
	if strings.Count(out, "\n") < 20 {
		t.Fatalf("trace CSV suspiciously short:\n%s", out)
	}
}

func TestFig6(t *testing.T) {
	a, b := Fig6(small)
	checkTable(t, a, 2)
	checkTable(t, b, 2)
}

func TestExtSwitchTraffic(t *testing.T) {
	tb := ExtSwitchTraffic(small)
	checkTable(t, tb, 12)
}

func TestExtScale(t *testing.T) {
	tb := ExtScale(small)
	checkTable(t, tb, 2)
}

func TestExtAblation(t *testing.T) {
	tb := ExtAblation(small)
	checkTable(t, tb, 6)
}

func TestExtScaleApps(t *testing.T) {
	tb := ExtScaleApps(small)
	checkTable(t, tb, 4)
}

func TestExtRouting(t *testing.T) {
	tb := ExtRouting(small)
	checkTable(t, tb, 2)
}

func TestExtMultiRail(t *testing.T) {
	tb := ExtMultiRail(small)
	checkTable(t, tb, 4)
}

func TestExtPageRank(t *testing.T) {
	tb := ExtPageRank(small)
	checkTable(t, tb, 2)
}

func TestExtFaults(t *testing.T) {
	tb := ExtFaults(small)
	checkTable(t, tb, 5)
}

func TestExtSpMV(t *testing.T) {
	tb := ExtSpMV(small)
	checkTable(t, tb, 2)
}

func TestExtSubsetBarrier(t *testing.T) {
	tb := ExtSubsetBarrier(small)
	checkTable(t, tb, 4)
}

func TestExtSort(t *testing.T) {
	tb := ExtSort(small)
	checkTable(t, tb, 2)
}

func TestExtProvisioning(t *testing.T) {
	tb := ExtProvisioning(small)
	checkTable(t, tb, 3)
}

func TestExtAppScaling(t *testing.T) {
	tb := ExtAppScaling(small)
	checkTable(t, tb, 2)
}

func TestValidateAllPass(t *testing.T) {
	tb := Validate(small)
	checkTable(t, tb, 10)
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[2].String(), "PASS") {
			t.Errorf("%s / %s: %s", row[0], row[1], row[2])
		}
	}
}

func TestWriteJSON(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow(Int(1), Text("2"))
	var buf bytes.Buffer
	if err := WriteAllJSON(&buf, []*Table{tb, tb}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"id": "x"`) || !strings.Contains(out, `"1",`) || !strings.HasPrefix(out, "[") {
		t.Fatalf("bad JSON:\n%s", out)
	}
}
