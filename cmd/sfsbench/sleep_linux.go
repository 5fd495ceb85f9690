package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep is not
// usable for pacing an open loop at a 2 ms tick: a Go timer whose waiting
// thread sits in epoll_wait fires up to a millisecond late (the netpoller's
// timeout is in whole milliseconds), which would make the generator late on
// most ticks. The kernel's own timer slack is about 50 µs.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) is absorbed by the caller's spin
}
