//go:build !unix

package rt_test

import "time"

// processCPU reports that this platform has no getrusage: no attempt of the
// wall-clock canary is ever void here.
func processCPU() time.Duration { return -1 }
