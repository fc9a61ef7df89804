//go:build unix

package exec

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the user plus system CPU time this process has used.
// Unlike the wall clock, it does not advance while other processes hold
// the CPUs.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
