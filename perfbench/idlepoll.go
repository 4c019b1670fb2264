package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// idlePollArg makes the benchmark's executable run as its idle-poll
// child (see startIdlePoll) instead of as the benchmark.
const idlePollArg = "-idle-poll-child"

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only when no
// other thread of its CPU wants to.
const schedIdle = 5

// startIdlePoll starts a child process that keeps every CPU busy at
// SCHED_IDLE priority, so no CPU halts while the benchmark runs, and
// returns the function that kills it and waits for it to exit.
//
// On a virtual machine a halted virtual CPU that is woken (by a
// packet, a timer or a child's exit) waits for the hypervisor to run it
// again, and the kernel counts that wait as stolen time. On the 2-vCPU
// VM the benchmark was built on, two threads that worked 0.5 ms and
// slept 1 ms lost 24% of their CPU that way, against 0.6% for the same
// threads spinning; the penalty grew and shrank with the host's load
// and moved every served latency with it. With the child running, the
// same threads lost 3.6%. A SCHED_IDLE thread yields to every normal
// thread at once, so the processes under test keep all of the CPU they
// ask for; their CPU time is measured per process and excludes it.
//
// When the child cannot run (the kernel refuses SCHED_IDLE), the
// benchmark runs without it and says so on standard error.
func startIdlePoll() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: idle poll off:", err)
		return func() {}
	}
	cmd := exec.Command(self, idlePollArg)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: idle poll off:", err)
		return func() {}
	}
	stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	// The child writes one line once every spinner runs at SCHED_IDLE,
	// and exits without one when it cannot.
	if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "perfbench: idle poll off: the child did not start")
		return func() {}
	}
	return stop
}

// idlePoll is the child's body: one spinning thread per CPU, each at
// SCHED_IDLE. It runs until it is killed.
func idlePoll() int {
	n := runtime.NumCPU()
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			param := struct{ priority int32 }{}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			if errno != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: idle poll:", err)
			return 1
		}
	}
	fmt.Println("ready")
	for {
		time.Sleep(time.Hour)
	}
}
