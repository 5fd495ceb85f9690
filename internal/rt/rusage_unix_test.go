//go:build unix

package rt_test

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time this process has consumed,
// or a negative value if the host will not say.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
