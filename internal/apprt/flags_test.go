// The run-spec flag set is one binder with one set of defaults; each row here
// is one command line the drivers share, resolved the way they resolve it.

package apprt_test

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/apprt"
	"repro/internal/cluster"
)

// bind parses args into the run-spec flags and returns every spec they
// select, one line per spec: net, nodes, seed, cycle, planes.
func bind(args ...string) (string, error) {
	fs := flag.NewFlagSet("bind", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := apprt.BindRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	apps, err := f.Apps()
	if err != nil {
		return "", err
	}
	nets, err := f.Nets()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, a := range apps {
		for _, net := range nets {
			s, err := f.Spec(net, a.RefNodes)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s %s %d %d %v %d\n", a.Name, net, s.Nodes, s.Seed, s.CycleAccurate, s.DVPlanes)
		}
	}
	return b.String(), nil
}

func TestRunFlags_Valid(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{name: "-nodes 0 is the reference size; every backend, seed 1",
			args: []string{"-app", "gups"},
			want: "gups Data Vortex 4 1 false 0\ngups Infiniband 4 1 false 0\n"},
		{name: "one backend", args: []string{"-app", "gups", "-net", "ib"},
			want: "gups Infiniband 4 1 false 0\n"},
		{name: "a net list keeps its order", args: []string{"-app", "fft", "-net", "ib, dv"},
			want: "fft Infiniband 4 1 false 0\nfft Data Vortex 4 1 false 0\n"},
		{name: "the paper label names a net", args: []string{"-app", "fft", "-net", "Data Vortex"},
			want: "fft Data Vortex 4 1 false 0\n"},
		{name: "every platform flag", args: []string{"-app", "gups", "-net", "dv", "-nodes", "256",
			"-seed", "9", "-cycle", "-planes", "2"},
			want: "gups Data Vortex 256 9 true 2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := bind(tt.args...)
			if err != nil || got != tt.want {
				t.Errorf("bind(%q) = %q, %v; want %q", tt.args, got, err, tt.want)
			}
		})
	}
	// No -app and no -net select every app on every backend.
	got, err := bind()
	if n := strings.Count(got, "\n"); err != nil || n != 2*len(apprt.Apps()) {
		t.Errorf("bind() selected %d specs, %v; want every app on both backends", n, err)
	}
}

func TestRunFlags_Invalid(t *testing.T) {
	tests := []struct {
		name string
		args []string
		// field is the *cluster.ConfigError's field, or "" for an error
		// before a spec exists (parse, app, net).
		field string
	}{
		{name: "negative planes", args: []string{"-planes", "-1"}, field: "DVPlanes"},
		{name: "negative nodes", args: []string{"-nodes", "-4"}, field: "Nodes"},
		{name: "a switch past the cell cap", args: []string{"-app", "gups", "-net", "dv", "-nodes", "100000000"}, field: "Nodes"},
		{name: "ports past the cell cap", args: []string{"-app", "gups", "-nodes", "3000000000"}, field: "Nodes"},
		{name: "unknown app", args: []string{"-app", "bogus"}},
		{name: "unknown net", args: []string{"-net", "bogus"}},
		{name: "an empty net in the list", args: []string{"-net", "dv,"}},
		{name: "negative seed", args: []string{"-seed", "-1"}},
		{name: "-rails is gone", args: []string{"-rails", "2"}},
		{name: "-plane-policy is gone", args: []string{"-plane-policy", "rr", "-planes", "2"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := bind(tt.args...)
			var ce *cluster.ConfigError
			switch {
			case err == nil:
				t.Fatalf("bind(%q) = nil error", tt.args)
			case tt.field == "" && errors.As(err, &ce):
				t.Errorf("bind(%q) = %v, want an error before any spec", tt.args, err)
			case tt.field != "" && (!errors.As(err, &ce) || ce.Field != tt.field):
				t.Errorf("bind(%q) = %v, want a *cluster.ConfigError naming %s", tt.args, err, tt.field)
			}
		})
	}
}
