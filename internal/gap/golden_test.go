package gap

// Golden byte-identity tests. The engine's hot-path optimizations
// (program pre-binding, the L1 fast path, buffer pooling, input
// memoization) are only admissible if they leave every simulated number
// bit-identical, so the committed testdata snapshots pin the rendered
// table1 and fig1 output at smoke scale: any change to a measured value
// — however small — fails the diff. Regenerate deliberately with
//
//	go test ./internal/gap -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files with current output")

func goldenCheck(t *testing.T, id string) {
	t.Helper()
	out, err := Dispatch(id, Config{Scale: 0.05, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Text()
	path := filepath.Join("testdata", id+"_smoke.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
			id, path, got, want)
	}
}

// TestGoldenTable1 pins the rendered characterization table.
func TestGoldenTable1(t *testing.T) { goldenCheck(t, "table1") }

// TestGoldenFig1 pins the rendered ninja-gap figure.
func TestGoldenFig1(t *testing.T) { goldenCheck(t, "fig1") }

// TestGoldenTable2 pins the rendered machine table.
func TestGoldenTable2(t *testing.T) { goldenCheck(t, "table2") }

// TestGoldenFig2 pins the rendered gap-trend figure.
func TestGoldenFig2(t *testing.T) { goldenCheck(t, "fig2") }
