package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer sleeps on a Linux timerfd read through the Go netpoller.
//
// time.Sleep wakes an otherwise idle process on a millisecond grid (the
// netpoller's epoll timeout), which would add up to a millisecond of the
// generator's own lateness to rounds that are due every few hundred
// microseconds. A blocking nanosleep(2) is precise but holds its scheduler
// slot in a syscall, so network readiness can go unpolled for milliseconds
// while the collector runs on the other one. A timerfd is both: it fires on
// time and its reader parks like any goroutine waiting on a socket.
type preciseTimer struct {
	f  *os.File
	fd uintptr
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPreciseTimer() (*preciseTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &preciseTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d.
func (t *preciseTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *preciseTimer) close() { t.f.Close() }
