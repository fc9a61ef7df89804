package gap

import "testing"

// TestParseScale checks the accepted forms of a scale and that
// everything else, NaN and infinities included, is refused.
func TestParseScale(t *testing.T) {
	for in, want := range map[string]float64{
		"smoke": 0.05, "small": 0.1, "medium": 0.5, "full": 1,
		"1": 1, "0.25": 0.25, "1e-3": 0.001, "2": 2,
	} {
		if got, err := ParseScale(in); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "abc", "0", "-1", "-0", "NaN", "nan", "Inf", "+Inf", "-Inf", "inf", "infinity", "1e400",
	} {
		if got, err := ParseScale(in); err == nil {
			t.Errorf("ParseScale(%q) = %v, want an error", in, got)
		}
	}
}
