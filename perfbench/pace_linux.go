package main

import (
	"os"
	"syscall"
	"unsafe"
)

// pacer sleeps with microsecond precision without holding a scheduler
// slot: it arms a one-shot timerfd and reads it through the runtime's
// network poller, so the goroutine parks while it waits. time.Sleep
// rounds waits below a millisecond up to one (the poller's epoll
// timeout is in milliseconds), which would make an open loop at tens of
// thousands of requests per second send in bursts set by the timer,
// not by its schedule.
type pacer struct {
	fd int
	f  *os.File // the same fd, pollable; never call f.Fd (it would make the fd blocking)
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// pause blocks the goroutine for ns nanoseconds.
func (p *pacer) pause(ns int64) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(ns)} // interval, value
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	var b [8]byte
	_, err := p.f.Read(b[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
