package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples, which it sorts in place; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// cpuTime is the process's user plus system CPU time so far. The
// kernel leaves out time the hypervisor stole from the VM, which on a
// shared host is the largest source of run-to-run noise in wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDuration returns the median of ds (sorting it).
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// machine describes where a result was measured. The commit comes from
// PERFBENCH_COMMIT, which run.sh sets when the checkout is a git work
// tree, else it reads "unknown".
func machine() map[string]string {
	m := map[string]string{
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		m["commit"] = c
	}
	return m
}

// compareMain implements `perfbench compare OLD NEW`: both files hold
// --out result lines. It prints each metric's median per side for every
// (workload, mode) both sides ran, and warns when the machines differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]resultRecord
	for i, path := range args {
		recs, err := readResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[i] = recs
	}
	// Machine fields that make two measurements incomparable; commits
	// are expected to differ and are only listed.
	for _, key := range []string{"numcpu", "gomaxprocs", "go", "cpu"} {
		seen := map[string]bool{}
		for _, recs := range sides {
			for _, r := range recs {
				seen[r.Machine[key]] = true
			}
		}
		if len(seen) > 1 {
			vals := make([]string, 0, len(seen))
			for v := range seen {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			fmt.Printf("WARNING: machines differ in %s: %s\n", key, strings.Join(vals, " | "))
		}
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []resultRecord) map[key]map[string][]float64 {
		g := map[key]map[string][]float64{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			if g[k] == nil {
				g[k] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				g[k][n] = append(g[k][n], m.Value)
			}
		}
		return g
	}
	old, cur := group(sides[0]), group(sides[1])
	keys := make([]key, 0, len(old))
	for k := range old {
		if cur[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, k := range keys {
		fmt.Printf("%s trace=%v\n", k.workload, k.trace)
		names := make([]string, 0, len(old[k]))
		for n := range old[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a, b := old[k][n], cur[k][n]
			if len(b) == 0 {
				continue
			}
			ma, mb := percentile(a, 50), percentile(b, 50)
			change := "n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Printf("  %-40s %12.4f (n=%d) -> %12.4f (n=%d)  %s\n", n, ma, len(a), mb, len(b), change)
		}
	}
	return 0
}

func readResults(path string) ([]resultRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r resultRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
