package main

import (
	"runtime"
	"syscall"
	"time"
)

// preciseSleep blocks the calling goroutine's thread in nanosleep. Go's
// timers wake through the network poller at millisecond granularity, which
// would make the generator itself the largest source of lateness at 1k
// req/s; the kernel's high-resolution timer wakes within tens of
// microseconds on an idle CPU. Call it from a goroutine locked to its
// thread (lockSender).
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// lockSender pins the sender goroutine to its thread for preciseSleep.
func lockSender() func() {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}
