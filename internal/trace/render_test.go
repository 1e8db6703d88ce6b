package trace

import (
	"strings"
	"testing"
)

// TestRenderASCIIEdgeCases is the table-driven edge-case suite for
// RenderASCII: zero-span traces, single-node traces, degenerate widths, wide
// node ids, and malformed intervals must all render without panicking.
func TestRenderASCIIEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		log     *Log
		width   int
		want    []string // substrings that must appear
		wantNot []string // substrings that must not appear
	}{
		{
			name:  "no records",
			log:   &Log{},
			width: 10,
			want:  []string{"(empty trace)"},
		},
		{
			name: "zero span with records",
			log: &Log{
				States:   []StateRec{{0, "compute", 0, 0}}, // instantaneous at t=0
				Messages: []MsgRec{{0, 1, 0, 0, 8}},
			},
			width: 10,
			// Must render lanes, not claim the trace is empty: the state
			// paints column 0 and the message lands in bucket 0.
			want:    []string{"node 0", "node 1", "#", "msgs", "|1"},
			wantNot: []string{"empty"},
		},
		{
			name:  "single node",
			log:   &Log{States: []StateRec{{0, "compute", 0, 10 * us}}},
			width: 8,
			want:  []string{"node 0", "########"},
		},
		{
			name:  "width below one falls back",
			log:   &Log{States: []StateRec{{0, "compute", 0, 10 * us}}},
			width: 0,
			want:  []string{"80 columns"},
		},
		{
			name: "single column",
			log: &Log{
				States:   []StateRec{{0, "compute", 0, 10 * us}},
				Messages: []MsgRec{{0, 0, 0, 5 * us, 8}},
			},
			width: 1,
			want:  []string{"node 0", "|#|", "|1|"},
		},
		{
			name:  "three digit node ids stay aligned",
			log:   &Log{States: []StateRec{{0, "compute", 0, 10 * us}, {120, "comm", 0, 10 * us}}},
			width: 4,
			// Label column widens to the widest id: both lanes and the msgs
			// label pad to the same offset.
			want: []string{"node 0   |", "node 120 |", "msgs     |"},
		},
		{
			name: "backwards interval ignored",
			log: &Log{States: []StateRec{
				{0, "compute", 0, 10 * us},
				{0, "comm", 9 * us, 2 * us}, // T1 < T0: malformed
			}},
			width: 10,
			// The malformed interval must not repaint the lane with '~':
			// the lane stays solid compute.
			want:    []string{"|##########|"},
			wantNot: []string{"|~", "~|", "#~", "~#"},
		},
		{
			name: "nine plus messages saturate",
			log: func() *Log {
				l := &Log{Messages: make([]MsgRec, 12)}
				for i := range l.Messages {
					l.Messages[i] = MsgRec{0, 1, 0, 10 * us, 8}
				}
				return l
			}(),
			width: 1,
			want:  []string{"|+|"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := tc.log.RenderASCII(&sb, tc.width); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			for _, not := range tc.wantNot {
				if strings.Contains(out, not) {
					t.Errorf("output should not contain %q:\n%s", not, out)
				}
			}
		})
	}
}
