package main

import (
	"fmt"
	"math/bits"
	goruntime "runtime"
	"syscall"
	"unsafe"
)

// The sandbox has two virtual CPUs, and a goroutine woken on the other
// one waits for the hypervisor to deliver the wake-up: a varying number
// of tens of microseconds, thousands of times a second. Left to both
// CPUs, a stencil step's lower decile wandered between 1.7 and 2.4 ms
// within one minute; on one CPU it stayed within 1.55–1.66 ms, and was
// faster (README, estimator). So every run executes on one CPU: the
// harness pins the thread it forks the child from, the child inherits
// the mask, and its Go runtime starts with GOMAXPROCS 1.

// cpuMask is the bit set sched_setaffinity(2) takes: room for 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts the calling thread, and with it every process
// it forks from now on, to the highest-numbered CPU it may run on. The
// caller's goroutine stays locked to that thread.
func pinToOneCPU() error {
	goruntime.LockOSThread()
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for w := len(mask) - 1; w >= 0; w-- {
		if mask[w] != 0 {
			top := uint64(1) << (63 - bits.LeadingZeros64(mask[w]))
			mask = cpuMask{}
			mask[w] = top
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}
