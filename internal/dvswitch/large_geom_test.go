package dvswitch

import (
	"errors"
	"testing"
)

// TestValidateGeometryBounds pins the MaxGeometryCells bound at its
// boundaries: geometries whose cell grid C×H×A fits the int32 index
// encodings validate, one step past fails with a typed *GeometryError.
func TestValidateGeometryBounds(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"min", Params{Heights: 1, Angles: 1}, true},
		{"paper", Params{Heights: 4, Angles: 8}, true},
		{"1024-port", Params{Heights: 128, Angles: 8}, true},
		{"under-bound", Params{Heights: 1 << 24, Angles: 2}, true}, // 25×2^25 cells
		{"over-bound", Params{Heights: 1 << 24, Angles: 3}, false}, // 25×3×2^24 cells
		{"at-bound", Params{Heights: 1, Angles: MaxGeometryCells}, true},
		{"past-bound", Params{Heights: 1, Angles: MaxGeometryCells + 1}, false},
		{"ports-over", Params{Heights: 2, Angles: MaxGeometryCells}, false},
		{"heights-over", Params{Heights: MaxGeometryCells * 2, Angles: 1}, false},
		{"not-pow2", Params{Heights: 3, Angles: 4}, false},
		{"no-angles", Params{Heights: 8, Angles: 0}, false},
	}
	for _, cse := range cases {
		err := cse.p.Validate()
		if cse.ok {
			if err != nil {
				t.Errorf("%s: Validate(%+v) = %v, want nil", cse.name, cse.p, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate(%+v) = nil, want error", cse.name, cse.p)
			continue
		}
		var ge *GeometryError
		if !errors.As(err, &ge) {
			t.Errorf("%s: Validate(%+v) error %T is not *GeometryError", cse.name, cse.p, err)
		} else if ge.Field == "" || ge.Reason == "" {
			t.Errorf("%s: GeometryError missing Field/Reason: %+v", cse.name, ge)
		}
	}
}
