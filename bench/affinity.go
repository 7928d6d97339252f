package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark splits the CPUs it may run on: the servers get all but the
// last, the generator the last. On a shared pair of cores the kernel's
// placement of eight generator threads among the servers' made the
// saturated rate of one and the same binary differ by 15 % between runs,
// and a generator thread that had to wait out a server thread's time slice
// sent its request milliseconds late. With the split, a window measures
// what the servers do with their CPUs, and the generator's own scheduling
// shows only in client.sched_lag_p99_ms.

// cpuSet is a CPU affinity mask.
type cpuSet [16]uint64 // 1024 CPUs

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

func getAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuPlan is the split of the allowed CPUs.
type cpuPlan struct {
	servers, generator cpuSet
	split              bool // false: one CPU only, everything shares it
}

// planCPUs splits the CPUs this process may run on and moves every thread
// of the process onto the generator's share; threads started later inherit
// it. With a single CPU there is nothing to split.
func planCPUs() (*cpuPlan, error) {
	allowed, err := getAffinity()
	if err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpus := allowed.list()
	p := &cpuPlan{servers: allowed, generator: allowed}
	if len(cpus) < 2 {
		return p, nil
	}
	p.split = true
	p.servers, p.generator = cpuSet{}, cpuSet{}
	for _, c := range cpus[:len(cpus)-1] {
		p.servers.set(c)
	}
	p.generator.set(cpus[len(cpus)-1])
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &p.generator); err != nil && err != syscall.ESRCH {
			return nil, fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	return p, nil
}

// onServerCPUs runs start — which forks a server — with the calling thread
// on the servers' CPUs, so that the child inherits them (and sizes its
// GOMAXPROCS by them), and moves the thread back.
func (p *cpuPlan) onServerCPUs(start func() error) error {
	if !p.split {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.servers); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := start()
	if rerr := setAffinity(0, &p.generator); err == nil && rerr != nil {
		err = fmt.Errorf("sched_setaffinity: %w", rerr)
	}
	return err
}

func (p *cpuPlan) String() string {
	if !p.split {
		return fmt.Sprintf("servers and generator share CPU %v", p.servers.list())
	}
	return fmt.Sprintf("servers on CPU %v, generator on CPU %v", p.servers.list(), p.generator.list())
}

// keepAwake starts, for every CPU of the plan, a child process whose one
// busy thread has scheduling class SCHED_IDLE, and returns the function that
// stops and reaps them. An idle-class thread runs only when nothing else
// wants its CPU and is preempted the moment anything does, so it takes no
// time from the servers or the generator; what it does is keep the virtual
// CPU from halting. A halted virtual CPU is woken through the hypervisor,
// which on this class of machine costs 30–50 µs a time or much more,
// depending on how the host has lately been polling — four such wake-ups
// were most of lat_p50_ms and nearly all of its spread (78–98 % between the
// quartiles of ten runs on migrated-walk without the spinners, 6–9 % with).
// The kernel's idle=poll does the same for a whole machine.
//
// The spinners are processes, not goroutines: a goroutine that the kernel
// runs only when its CPU is idle cannot be stopped for garbage collection
// while the servers keep that CPU busy, and the whole generator waits.
func (p *cpuPlan) keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdins []io.Closer
	var cmds []*exec.Cmd
	stop = func() {
		for _, in := range stdins {
			in.Close()
		}
		for _, cmd := range cmds {
			cmd.Wait()
		}
	}
	for _, cpu := range append(p.servers.list(), p.generator.list()...) {
		cmd := exec.Command(self, "-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, err
		}
		stdins, cmds = append(stdins, in), append(cmds, cmd)
	}
	return stop, nil
}

// spin is the child process of keepAwake: it pins its main thread to cpu,
// drops it to SCHED_IDLE and spins. It exits when its standard input closes
// — when the benchmark stops it, or dies — from another thread, which needs
// no turn on the spinning one's CPU.
func spin(cpu int) {
	runtime.LockOSThread()
	var one cpuSet
	one.set(cpu)
	if err := setAffinity(0, &one); err != nil {
		fatal("bench: spin: sched_setaffinity: %v", err)
	}
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Without the idle class a spinner would take the CPU from the
		// servers; better to measure with halting CPUs.
		fatal("bench: spin: sched_setscheduler(SCHED_IDLE): %v", errno)
	}
	exitWhenStdinCloses()
	for {
	}
}

// exitWhenStdinCloses ends a child process of the benchmark (-spin, -echo)
// once the benchmark closes the child's standard input, or dies.
func exitWhenStdinCloses() {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
}
