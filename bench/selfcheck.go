package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// manifest is the part of BENCHMARK.json the self-check reads: the metrics
// and the bounds the driver will hold the benchmark to.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck proves the benchmark repeats before it is committed: two
// interleaved sets (A B A B …) of k full runs of the same code per
// workload, each run a fresh process with its own seed, judged the way the
// driver judges them — for every workload × end-to-end metric, the spread
// (distance between the quartiles as a share of the median) of each set
// must stay within the metric's bound, setup_s excepted, and neither set's
// median may be worse than the other's by more than the bound. It prints a
// Markdown report (bench/REPEATABILITY.md is one) and fails if any row does.
func runSelfcheck(k int, only string, nodeBin, work, manifestPath string) error {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// A signal ends the run in progress, which then stops its own children.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	started := time.Now()
	fmt.Printf("# Repeatability of the live loopback benchmark\n\n")
	fmt.Printf("Output of `bash bench/run.sh -selfcheck %d`: two interleaved sets (A B A B …) of %d runs of\n", k, k)
	fmt.Printf("the same code per workload, `--seconds %d` each, every run a fresh process with its own seed\n", m.RunSeconds)
	fmt.Printf("(A: 1…%d, B: %d…%d). *spread* is the distance between the first and third quartile\n", k, k+1, 2*k)
	fmt.Printf("(Python's `statistics.quantiles(values, n=4)`) as a share of the median. A row passes when both\n")
	fmt.Printf("spreads are within the bound (`setup_s` excepted, as in the driver) and neither median is worse\n")
	fmt.Printf("than the other by more than the bound; `wide` marks a spread above a third of the bound.\n\n")

	failedRows := 0
	for _, wl := range m.Workloads {
		if only != "" && only != wl.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		var wall []float64
		var runs []string // one line per run, in the order they ran
		for i := 0; i < k; i++ {
			for set := 0; set < 2; set++ {
				seed := 1 + i + set*k
				t0 := time.Now()
				res, speed, err := childRun(ctx, self, nodeBin, work, wl.Name, seed, m.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				wall = append(wall, time.Since(t0).Seconds())
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", wl.Name, seed, res.Failed, res.Attempted)
				}
				line := fmt.Sprintf("%c seed %2d: %s |", 'A'+set, seed, speed)
				for _, em := range m.EndToEnd {
					v := res.Metrics[em.Name].Value
					sets[set][em.Name] = append(sets[set][em.Name], v)
					line += " " + sig(v)
				}
				runs = append(runs, line)
			}
		}
		fmt.Printf("## %s\n\n", wl.Name)
		fmt.Printf("%d runs, every one correct with 0 failed operations; wall time per run: median %.1f s, longest %.1f s.\n\n",
			2*k, median(wall), maxOf(wall))
		fmt.Printf("Every run in the order they ran (host speed | ")
		for i, em := range m.EndToEnd {
			if i > 0 {
				fmt.Printf(", ")
			}
			fmt.Printf("%s", em.Name)
		}
		fmt.Printf("):\n\n")
		for _, line := range runs {
			fmt.Printf("    %s\n", line)
		}
		fmt.Println()
		fmt.Printf("| metric | unit | median A | quartiles A | median B | quartiles B | B vs A | spread A | spread B | bound | |\n")
		fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
		for _, em := range m.EndToEnd {
			a, b := sets[0][em.Name], sets[1][em.Name]
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			// How much worse B is than A (positive = worse), and A than B.
			worse := (mb - ma) / ma
			if em.Better == "higher" {
				worse = -worse
			}
			worseBA, worseAB := worse, -worse*ma/mb
			verdict := "PASS"
			if em.Name != "setup_s" && (sa > em.Bound || sb > em.Bound) {
				verdict = "FAIL spread"
			}
			if worseBA > em.Bound || worseAB > em.Bound {
				verdict = "FAIL medians"
			}
			if verdict == "PASS" && em.Name != "setup_s" && math.Max(sa, sb) > em.Bound/3 {
				verdict = "PASS wide"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failedRows++
			}
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			fmt.Printf("| `%s` | %s | %s | %s – %s | %s | %s – %s | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				em.Name, em.Unit, sig(ma), sig(qa1), sig(qa3), sig(mb), sig(qb1), sig(qb3),
				100*(mb-ma)/ma, 100*sa, 100*sb, 100*em.Bound, verdict)
		}
		fmt.Println()
	}
	fmt.Printf("Total %.0f s. ", time.Since(started).Seconds())
	if failedRows > 0 {
		fmt.Printf("**%d rows FAIL.**\n", failedRows)
		return fmt.Errorf("%d workload × metric rows do not repeat within their bound", failedRows)
	}
	fmt.Printf("Every row passes.\n")
	return nil
}

// childRun runs one untraced benchmark run in a fresh process and parses
// the last line of its output, and the host speed it printed.
func childRun(ctx context.Context, self, nodeBin, work, workload string, seed, seconds int) (res result, speed string, err error) {
	cmd := exec.CommandContext(ctx, self, "-node", nodeBin, "-work", work,
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(out.Bytes())
		return res, "", err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, "", fmt.Errorf("last line of output is not a result: %w", err)
	}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("host speed ")); ok {
			speed, _, _ = strings.Cut(string(rest), ":")
		}
	}
	return res, speed, nil
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// sig formats v with five significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
