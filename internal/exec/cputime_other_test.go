//go:build !unix

package exec

import (
	"testing"
	"time"
)

var wallStart = time.Now()

// cpuTime falls back to the wall clock where getrusage is unavailable.
func cpuTime(*testing.T) time.Duration { return time.Since(wallStart) }
