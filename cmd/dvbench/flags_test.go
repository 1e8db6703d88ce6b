// Which run-spec flags each dvbench mode reads: a row is one command line,
// parsed the way main parses it. And the command an interrupted journaled
// run prints to finish itself.

package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/apprt"
)

// checkArgs parses args into dvbench's mode flags and the run-spec flags and
// returns the mode they select and checkRunSpecFlags' verdict on them.
func checkArgs(args ...string) (string, error) {
	fs := flag.NewFlagSet("dvbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	list := fs.Bool("list", false, "")
	info := fs.Bool("info", false, "")
	metrics := fs.String("metrics", "", "")
	fs.String("exp", "all", "")
	fs.Bool("small", false, "")
	run := apprt.BindRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	mode := modeOf(*list, *info, run.App, *metrics)
	return mode, checkRunSpecFlags(fs, mode)
}

func TestRunSpecFlagsByMode_Valid(t *testing.T) {
	tests := []struct {
		name string
		args []string
		mode string
	}{
		{name: "no flags run every experiment", mode: "-exp"},
		{name: "an experiment at smoke size", args: []string{"-small", "-exp", "fig7"}, mode: "-exp"},
		{name: "-app reads every run-spec flag", args: []string{"-app", "gups", "-net", "dv", "-nodes", "8",
			"-seed", "3", "-cycle", "-planes", "2"}, mode: "-app"},
		{name: "-info reads -app, -nodes and -planes", args: []string{"-info", "-app", "gups", "-nodes", "256",
			"-planes", "2"}, mode: "-info"},
		{name: "-info outranks -app", args: []string{"-info", "-app", "gups"}, mode: "-info"},
		{name: "-list", args: []string{"-list"}, mode: "-list"},
		{name: "-metrics", args: []string{"-metrics", "m"}, mode: "-metrics"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mode, err := checkArgs(tt.args...)
			if err != nil || mode != tt.mode {
				t.Errorf("checkArgs(%q) = %s, %v; want %s, nil", tt.args, mode, err, tt.mode)
			}
		})
	}
}

func TestRunSpecFlagsByMode_Invalid(t *testing.T) {
	tests := []struct {
		name string
		args []string
		flag string // the flag the error must name
	}{
		{name: "an experiment fixes its engine", args: []string{"-small", "-exp", "fig7", "-cycle"}, flag: "-cycle"},
		{name: "an experiment fixes its seed", args: []string{"-exp", "fig7", "-seed", "9"}, flag: "-seed"},
		{name: "the first unread flag in lexical order", args: []string{"-seed", "9", "-planes", "2"}, flag: "-planes"},
		{name: "an experiment fixes its nodes", args: []string{"-exp", "fig4", "-nodes", "8"}, flag: "-nodes"},
		{name: "-info does not read -net", args: []string{"-info", "-net", "dv"}, flag: "-net"},
		{name: "-info does not read -cycle", args: []string{"-info", "-cycle"}, flag: "-cycle"},
		{name: "-info does not read -seed", args: []string{"-info", "-seed", "2"}, flag: "-seed"},
		{name: "-list reads no run-spec flag", args: []string{"-list", "-app", "gups"}, flag: "-app"},
		{name: "-metrics reads no run-spec flag", args: []string{"-metrics", "m", "-planes", "2"}, flag: "-planes"},
		{name: "an explicit default is still set", args: []string{"-exp", "fig7", "-cycle=false"}, flag: "-cycle"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := checkArgs(tt.args...)
			if err == nil || !strings.HasPrefix(err.Error(), tt.flag+":") {
				t.Errorf("checkArgs(%q) = %v, want an error naming %s", tt.args, err, tt.flag)
			}
		})
	}
}

func TestResumeHint(t *testing.T) {
	tests := []struct {
		name                string
		exp                 string
		small               bool
		svg, json, traceOut string
		want                string
	}{
		{name: "every experiment at full size", exp: "all", want: "dvbench -resume jr"},
		{name: "one experiment", exp: "fig6a", want: "dvbench -resume jr -exp fig6a"},
		{name: "-exp all in any case", exp: "ALL", small: true, want: "dvbench -resume jr -small"},
		{name: "the SVG directory", exp: "all", svg: "figs", want: "dvbench -resume jr -svg figs"},
		{name: "the JSON file", exp: "all", json: "out.json", want: "dvbench -resume jr -json out.json"},
		{name: "fig5's trace file", exp: "fig5", traceOut: "t.prv", want: "dvbench -resume jr -exp fig5 -trace t.prv"},
		{name: "every output at once", exp: "all", small: true, svg: "figs", json: "out.json", traceOut: "t.prv",
			want: "dvbench -resume jr -small -svg figs -json out.json -trace t.prv"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := resumeHint("jr", tt.exp, tt.small, tt.svg, tt.json, tt.traceOut); got != tt.want {
				t.Errorf("resumeHint = %q, want %q", got, tt.want)
			}
		})
	}
}
