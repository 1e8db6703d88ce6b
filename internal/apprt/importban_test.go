// Layering check: application packages program the fabrics through their
// endpoints (internal/dv and internal/vic on the Data Vortex side,
// internal/mpi on the InfiniBand side), never through the fabric models
// beneath them. No file under internal/apps may import internal/dvswitch or
// internal/ib.

package apprt_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestAppsImportBan(t *testing.T) {
	banned := map[string]bool{
		"repro/internal/dvswitch": true,
		"repro/internal/ib":       true,
	}
	root := filepath.Join("..", "apps")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if banned[p] {
				t.Errorf("%s imports %s; apps program the fabric through its endpoint",
					path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if checked == 0 {
		t.Fatal("no Go files found under internal/apps")
	}
}
