package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/apprt"
)

// asMain, when set in the environment, makes the test binary be dvcheck: it
// registers "drift" — gups with a seed that moves on every call, the
// nondeterminism the audit exists to catch — and runs main on the variable's
// fields.
const asMain = "DVCHECK_TEST_ARGS"

func TestMain(m *testing.M) {
	args, ok := os.LookupEnv(asMain)
	if !ok {
		os.Exit(m.Run())
	}
	gups, _ := apprt.Get("gups")
	calls := uint64(0)
	drift := gups
	drift.Name = "drift"
	drift.Run = func(spec apprt.RunSpec) (apprt.Summary, error) {
		calls++
		spec.Seed += calls
		return gups.Run(spec)
	}
	apprt.Register(drift)
	os.Args = append([]string{"dvcheck"}, strings.Fields(args)...)
	main()
}

// dvcheck runs the command on args and returns its stdout, stderr and exit
// code.
func dvcheck(t *testing.T, args string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), asMain+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestAuditDivergenceFails: a run that does not repeat itself passes its
// invariants and still fails dvcheck, naming the part of the witness that
// differs (a new seed moves the root RNG stream before anything else); the
// app it is built from passes, audited.
func TestAuditDivergenceFails(t *testing.T) {
	out, _, code := dvcheck(t, "-app drift -net dv -seeds 1")
	if code != 1 || !strings.Contains(out, "FAIL drift/Data Vortex/none seed=1: determinism audit: cluster: rng mismatch at virtual ") {
		t.Errorf("drifting app: exit %d, want 1 and a FAIL line naming the RNG streams; stdout:\n%s", code, out)
	}
	out, _, code = dvcheck(t, "-app gups -net dv -seeds 1")
	if code != 0 || !strings.HasSuffix(out, "or more boundaries, all invariants held\n") {
		t.Errorf("gups: exit %d, want 0 and the audited summary; stdout:\n%s", code, out)
	}
}

// TestEmptySweepExits2: a sweep that selects no run is bad input, one line
// and exit 2, not "0 runs, all invariants held".
func TestEmptySweepExits2(t *testing.T) {
	for _, args := range []string{
		"-seeds 0",
		"-seeds -1",
		"-app fft -faults drop", // fft has no reliable layer
		"-faults ,",
		"-net ,",
	} {
		out, stderr, code := dvcheck(t, args)
		if code != 2 || out != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("dvcheck %s: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, out, stderr)
		}
	}
}
