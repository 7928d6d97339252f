package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// nodeSpec describes one server of a workload's group.
type nodeSpec struct {
	home  bool     // owns the materialized site (server 0)
	entry []string // entry points, home only
	wal   bool
	lease time.Duration
}

// node is one running server child.
type node struct {
	addr  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// cluster is a group of node processes on loopback TCP. The benchmark owns
// them: stop() ends and reaps every one, and a node also exits by itself
// when the benchmark dies, because its standard input closes.
type cluster struct {
	nodes []*node
	dir   string // run directory: every node's -dir lives under it
}

// basePort is where the search for free loopback ports starts. Fixed, not
// ephemeral, so that the URLs of a cluster workload — which contain the
// home's port — and therefore its stream are the same on every run.
const basePort = 18400

// freePorts returns n consecutive loopback ports that could be bound just
// now, searching upward from basePort.
func freePorts(n int) ([]int, error) {
	for base := basePort; base < basePort+2000; base += n {
		ok := true
		for i := 0; i < n && ok; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				ok = false
				break
			}
			l.Close()
		}
		if ok {
			ports := make([]int, n)
			for i := range ports {
				ports[i] = base + i
			}
			return ports, nil
		}
	}
	return nil, fmt.Errorf("no %d consecutive free loopback ports from %d", n, basePort)
}

// startCluster launches one node per spec and waits until each answers. dir
// must exist; nodeBin is the built bench/node binary.
func startCluster(nodeBin, dir string, specs []nodeSpec, cpus *cpuPlan, verbose bool) (*cluster, error) {
	ports, err := freePorts(len(specs))
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(specs))
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
	}
	c := &cluster{dir: dir}
	for i, sp := range specs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		ndir := filepath.Join(dir, "node"+strconv.Itoa(i))
		args := []string{"-addr", addrs[i], "-dir", ndir, "-peers", strings.Join(peers, ",")}
		if sp.home {
			args = append(args, "-entry", strings.Join(sp.entry, ","))
		} else {
			// A co-op starts empty and keeps what it hosts in memory, as
			// dcwsd does when started without -root.
			args = append(args, "-mem")
		}
		if sp.wal {
			args = append(args, "-wal")
		}
		if sp.lease > 0 {
			args = append(args, "-lease", sp.lease.String())
		}
		if verbose {
			args = append(args, "-v")
		}
		cmd := exec.Command(nodeBin, args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			c.stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			c.stop()
			return nil, err
		}
		if err := cpus.onServerCPUs(cmd.Start); err != nil {
			c.stop()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		n := &node{addr: addrs[i], cmd: cmd, stdin: stdin}
		c.nodes = append(c.nodes, n)
		// The node prints "ready <addr>" once its listener is open.
		ready := make(chan error, 1)
		go func() {
			line, err := bufio.NewReader(stdout).ReadString('\n')
			if err == nil && !strings.HasPrefix(line, "ready") {
				err = fmt.Errorf("unexpected output %q", line)
			}
			ready <- err
			io.Copy(io.Discard, stdout)
		}()
		select {
		case err := <-ready:
			if err != nil {
				c.stop()
				return nil, fmt.Errorf("node %d (%s) did not start: %v", i, addrs[i], err)
			}
		case <-time.After(30 * time.Second):
			c.stop()
			return nil, fmt.Errorf("node %d (%s) not ready after 30s", i, addrs[i])
		}
	}
	return c, nil
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.addr
	}
	return out
}

// stop ends every node and waits for it, then removes the run directory.
// Closing stdin asks a node to remove its directory and exit; one that has
// not gone after two seconds is killed. Safe to call more than once.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.stdin.Close()
	}
	for _, n := range c.nodes {
		done := make(chan struct{})
		go func() { n.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			n.cmd.Process.Kill()
			<-done
		}
	}
	c.nodes = nil
	os.RemoveAll(c.dir)
}

// scrape is one reading of a node's /~dcws/metrics: series name (with its
// label set, as exposed) → value. Histogram buckets are skipped.
type scrape map[string]float64

func scrapeNode(addr string) (scrape, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	resp, err := c.roundTrip(getRequest(addr, "/~dcws/metrics"))
	if err != nil {
		return nil, err
	}
	if resp.status != 200 {
		return nil, fmt.Errorf("metrics: status %d", resp.status)
	}
	return parseExposition(resp.body), nil
}

func parseExposition(body []byte) scrape {
	out := scrape{}
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// "name{labels} value [# exemplar]"
		if i := bytes.Index(line, []byte(" # ")); i >= 0 {
			line = line[:i]
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := string(line[:sp])
		if strings.Contains(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(string(line[sp+1:]), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// scrapeAll reads every node and sums the series across nodes.
func (c *cluster) scrapeAll() (scrape, error) {
	sum := scrape{}
	for _, n := range c.nodes {
		s, err := scrapeNode(n.addr)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.addr, err)
		}
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum, nil
}

// delta returns after[name] - before[name].
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// controlPlaneCounters must not move inside a timed window: each one marks
// a decision of the control plane that changes placement, membership or the
// durable state, and with it what the next request costs.
var controlPlaneCounters = []string{
	"dcws_migrations_total",
	"dcws_replicate_pushes_total",
	"dcws_revokes_total",
	"dcws_wal_snapshots_total",
	"dcws_peers_declared_down_total",
	"dcws_resilience_trips_total",
}

// quiescent reports which control-plane counters moved between two scrapes;
// an empty result means the window saw a frozen system.
func quiescent(before, after scrape) []string {
	var moved []string
	for _, name := range controlPlaneCounters {
		if d := delta(before, after, name); d != 0 {
			moved = append(moved, fmt.Sprintf("%s %+g", name, d))
		}
	}
	return moved
}

// cpuTime returns the CPU time every node has used so far. It sums the
// on-CPU nanoseconds of each thread from /proc/<pid>/task/*/schedstat, which
// the scheduler keeps exactly; utime+stime of /proc/<pid>/stat, the fallback
// where schedstat is not built in, is sampled at the timer tick, and a
// server woken by a paced generator is not independent of the tick.
func (c *cluster) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, n := range c.nodes {
		pid := n.cmd.Process.Pid
		d, err := schedstatTime(pid)
		if err != nil {
			if d, err = statTime(pid); err != nil {
				return 0, err
			}
		}
		total += d
	}
	return total, nil
}

func schedstatTime(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total time.Duration
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := bytes.Fields(data)
		if len(fields) < 1 {
			return 0, fmt.Errorf("%s: empty", f)
		}
		ns, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

func statTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15 of the line, 12 and 13 after the
	// parenthesised command name, in ticks of USER_HZ, which is 100 on
	// every Linux architecture Go supports.
	f := bytes.Fields(data[bytes.LastIndexByte(data, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(string(f[11]), 10, 64)
	st, _ := strconv.ParseInt(string(f[12]), 10, 64)
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// peakRSS returns the sum of every node's VmHWM in bytes.
func (c *cluster) peakRSS() (int64, error) {
	var total int64
	for _, n := range c.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseInt(f[1], 10, 64)
					total += kb << 10
					found = true
				}
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", n.cmd.Process.Pid)
		}
	}
	return total, nil
}
