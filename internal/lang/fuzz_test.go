package lang

import "testing"

// FuzzNormalize checks that Normalize never panics and that canonical
// text is a fixed point: normalizing it again returns it unchanged, so a
// resubmission of the canonical form hits the same memo entry. The seed
// corpus in testdata/fuzz/FuzzNormalize (the submit examples, a racy
// parallel loop, a runaway while loop, and truncated prefixes of each)
// runs as an ordinary test.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		canonical, _, err := Normalize(src)
		if err != nil {
			return
		}
		again, _, err := Normalize(canonical)
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%s", err, canonical)
		}
		if again != canonical {
			t.Fatalf("canonical text is not a fixed point:\n%s\nnormalizes to\n%s", canonical, again)
		}
	})
}
