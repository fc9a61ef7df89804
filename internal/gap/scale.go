package gap

import (
	"fmt"
	"math"
	"strconv"
)

// scalePresets are the named problem-size multipliers the CLIs accept for
// -scale alongside bare numbers. They give the common invocations stable
// names: "small" is the CI / quick-check size, "full" the paper's
// evaluation size.
var scalePresets = map[string]float64{
	"smoke":  0.05,
	"small":  0.1,
	"medium": 0.5,
	"full":   1,
}

// ParseScale resolves a scale: the CLIs' -scale flag and the daemon's
// ?scale= query parameter. It takes a named preset (smoke, small, medium,
// full) or a positive finite number. NaN and +Inf are refused: SizeFor
// would turn them into an arbitrary size, not one anybody asked for.
func ParseScale(s string) (float64, error) {
	if v, ok := scalePresets[s]; ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad scale %q: want a number or one of smoke, small, medium, full", s)
	}
	if !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad scale %q: must be positive and finite", s)
	}
	return v, nil
}
