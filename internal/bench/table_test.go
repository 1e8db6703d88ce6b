package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// TestCellValue: each cell prints as the runners' format strings printed it,
// and Value reads back the number as printed, a Duration in microseconds.
// Text, and a number that is not finite, have no value.
func TestCellValue(t *testing.T) {
	cases := []struct {
		c    Cell
		text string
		v    float64
		ok   bool
	}{
		{Num(415.1, 1, None), "415.1", 415.1, true},
		{Num(33.5, 2, None), "33.50", 33.5, true},
		{Num(1.2149, 2, Ratio), "1.21x", 1.21, true},
		{Num(97.25, 1, Percent), "97.2%", 97.2, true}, // an exact half rounds to even
		{Num(2.5, 0, None), "2", 2, true},
		{Num(0.125, 2, None), "0.12", 0.12, true},
		{Num(2.375, 3, Micros), "2.375us", 2.375, true},
		{Num(155.04, 1, MkeysPerSec), "155.0 Mkeys/s", 155, true},
		{Num(1e-3, 0, Sci), "1e-03", 1e-3, true},
		{Num(9.6e-4, 0, Sci), "1e-03", 1e-3, true},
		{Int(42), "42", 42, true},
		{Int(int64(-7)), "-7", -7, true},
		{Dur(512), "512ps", 0.000512, true},
		{Dur(5123), "5.123ns", 0.005123, true},
		{Dur(971545 * sim.Nanosecond), "971.545us", 971.545, true},
		{Dur(2128 * sim.Microsecond), "2.128ms", 2128, true},
		{Dur(3*sim.Second + 4*sim.Millisecond), "3.004s", 3.004e6, true},
		{Text("PASS"), "PASS", 0, false},
		{Text("2x4/C2"), "2x4/C2", 0, false},
		{Num(math.Inf(1), 2, Ratio), "+Infx", 0, false},
		{Num(math.NaN(), 1, None), "NaN", 0, false},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.text {
			t.Errorf("%+v prints %q, want %q", tc.c, got, tc.text)
		}
		v, ok := tc.c.Value()
		if ok != tc.ok || v != tc.v {
			t.Errorf("%q: Value() = %v, %t; want %v, %t", tc.text, v, ok, tc.v, tc.ok)
		}
	}
}

// TestCellPrintsAsFmt holds the one formatter to the format strings it
// replaced, and Value to reading the printed number: strconv.ParseFloat of
// the digits, scaled to microseconds for a Duration. The draws favour exact
// halves, where rounding from the binary value is easiest to get wrong.
func TestCellPrintsAsFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		prec := rng.Intn(4)
		v := math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		if i%2 == 0 { // k + 1/2 at prec places, give or take an ulp
			v = (math.Floor(v*math.Pow10(prec)) + 0.5) / math.Pow10(prec)
			v = math.Nextafter(v, v+float64(rng.Intn(3)-1))
		}
		if i%3 == 0 {
			v = -v
		}
		c := Num(v, prec, Percent)
		if got, want := c.String(), fmt.Sprintf("%.*f%%", prec, v); got != want {
			t.Fatalf("Num(%v, %d, Percent) prints %q, fmt %q", v, prec, got, want)
		}
		want, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', prec, 64), 64)
		if got, _ := c.Value(); got != want {
			t.Fatalf("Num(%v, %d): Value %v, printed %v", v, prec, got, want)
		}
		sci := Num(v, prec, Sci)
		if got, want := sci.String(), fmt.Sprintf("%.*e", prec, v); got != want {
			t.Fatalf("Num(%v, %d, Sci) prints %q, fmt %q", v, prec, got, want)
		}
		want, _ = strconv.ParseFloat(sci.String(), 64)
		if got, _ := sci.Value(); got != want {
			t.Fatalf("Num(%v, %d, Sci): Value %v, printed %v", v, prec, got, want)
		}

		d := sim.Time(rng.Int63n(1 << uint(rng.Intn(50)+1)))
		if got, want := Dur(d).String(), d.String(); got != want {
			t.Fatalf("Dur(%d) prints %q, sim.Time %q", int64(d), got, want)
		}
		u, suffix := d.Unit()
		mant, _ := strconv.ParseFloat(d.String()[:len(d.String())-len(suffix)], 64)
		want = mant * float64(u/sim.Microsecond)
		if u < sim.Microsecond {
			want = mant / float64(sim.Microsecond/u)
		}
		if got, _ := Dur(d).Value(); got != want {
			t.Fatalf("Dur(%v): Value %v, printed %v us", d, got, want)
		}
	}
}
