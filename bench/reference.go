package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The host this benchmark runs on — a small virtual machine — changes speed
// under it: for minutes at a time everything that goes through the kernel
// (system calls, loopback TCP, wake-ups) costs up to half again as much, and
// one and the same binary then delivers 17 000 requests a second instead of
// 24 000. Ten runs spread over such a change do not repeat within any useful
// bound, and two sets of ten taken an hour apart need not agree at all.
//
// So every run measures the host as well: before each timed window the
// generator drives, closed loop, a reference responder that has no logic of
// its own — accept, read a request, write a canned reply — on the servers'
// CPUs, over the same loopback. The rate it delivers, as a share of
// refNominalRPS, is the run's host speed, and the timing metrics are
// reported at nominal host speed: rates divided by it, times multiplied. The
// reference rate moved in proportion to the workloads' own figures wherever
// it was tried (README.md has the numbers), and what is left between runs is
// a third of what it was.

// refNominalRPS is the reference rate that counts as host speed 1: about
// what the machine the benchmark was written on delivers in its faster
// periods. Frozen, like base_rps, so that runs on different days compare.
const refNominalRPS = 100000

// refBody is what the reference responder answers every request with: the
// size of a MAPUG document.
var refBody = bytes.Repeat([]byte("dcws reference\n"), 256)

// echo is the child process behind -echo: the reference responder. It exits
// when its standard input closes.
func echo(addr string) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("bench: echo: %v", err)
	}
	fmt.Println("ready", l.Addr())
	exitWhenStdinCloses()
	fatal("bench: echo: %v", serveReference(l))
}

// serveReference answers every request on every connection to l with
// refBody, one goroutine per keep-alive connection, until l fails.
func serveReference(l net.Listener) error {
	reply := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(refBody))), refBody...)
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer c.Close()
			br := bufio.NewReader(c)
			for {
				// A request ends at its first empty line; it has no body.
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) <= 2 {
						break
					}
				}
				if _, err := c.Write(reply); err != nil {
					return
				}
			}
		}()
	}
}

// reference is the running responder and what its windows measured so far.
type reference struct {
	cmd   *exec.Cmd
	stdin io.Closer
	gen   *generator

	windows int
	ops     int
	elapsed time.Duration
}

// referencePlan is the request stream of a reference window: the same GET
// over and over.
func referencePlan(addr string) *plan {
	return &plan{
		addrs:   []string{addr},
		targets: []target{{path: "/ref", req: getRequest(addr, "/ref"), exp: learn(refBody), pool: -1}},
		stream:  []int32{0},
	}
}

// startReference starts the responder on the servers' CPUs and connects a
// generator to it.
func startReference(cpus *cpuPlan) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-echo", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cpus.onServerCPUs(cmd.Start); err != nil {
		return nil, fmt.Errorf("start reference responder: %w", err)
	}
	ref := &reference{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		ref.stop()
		return nil, fmt.Errorf("reference responder did not start: %q %v", line, err)
	}
	if ref.gen, err = newGenerator(referencePlan(addr), generatorWorkers); err != nil {
		ref.stop()
		return nil, err
	}
	return ref, nil
}

func (ref *reference) stop() {
	if ref.gen != nil {
		ref.gen.close()
	}
	ref.stdin.Close()
	ref.cmd.Wait()
}

// window drives the responder for d with every client busy.
func (ref *reference) window(d time.Duration) error {
	ref.windows++
	res := ref.gen.run(windowSpec{index: ref.windows, duration: d})
	if res.failed() > 0 {
		return fmt.Errorf("reference responder: %d of %d requests failed: %v", res.failed(), res.reads, res.errs)
	}
	ref.ops += res.inWindow
	ref.elapsed += res.elapsed
	return nil
}

// rps is the rate the responder delivered over all its windows so far.
func (ref *reference) rps() float64 { return float64(ref.ops) / ref.elapsed.Seconds() }
