// Command campaignbench measures campaign-engine throughput over a
// worker-count sweep and writes the results as JSON (the `make bench`
// artifact BENCH_campaign.json). The workload is classfuzz[stbr] at the
// experiments package's default scale; because the engine is
// deterministic in everything but wall clock, every row of the sweep
// fuzzes the identical campaign.
//
// Besides wall-clock throughput each row records the allocation cost of
// one campaign (allocs/op and bytes/op in the testing.B sense, measured
// via runtime.MemStats deltas), so the coverage-engine hot path can be
// tracked for allocation regressions alongside speed.
//
// Usage:
//
//	campaignbench [-seeds N] [-iters N] [-seed N] [-workers 1,4,8]
//	              [-repeat N] [-out BENCH_campaign.json]
//	              [-cpuprofile FILE] [-memprofile FILE] [-topallocs N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

type row struct {
	Workers      int     `json:"workers"`
	Iterations   int     `json:"iterations"`
	Tests        int     `json:"tests"`
	MillisTotal  float64 `json:"millis_total"`
	ItersPerSec  float64 `json:"iters_per_sec"`
	MicrosPerGen float64 `json:"micros_per_gen"`
	MicrosTest   float64 `json:"micros_per_test"`
	// MicrosVerify / MicrosExecute split the per-test cost into the
	// reference VM's verification phase (linking: hierarchy checks,
	// resolution, §4.10 method verification — where the verify memo
	// bites) and the rest of the startup pipeline (loading,
	// initialization, runtime). Measured on one extra
	// telemetry-instrumented campaign per row from the per-phase
	// jvm.<spec>.phase.*_ns histograms, so the timed repeats above stay
	// uninstrumented.
	MicrosVerify  float64 `json:"micros_verify_per_test"`
	MicrosExecute float64 `json:"micros_execute_per_test"`
	// Speedup is relative to the sweep's first row (the first -workers
	// entry).
	Speedup float64 `json:"speedup_vs_1"`
	// AllocsPerOp / BytesPerOp are the heap allocation count and bytes
	// of one full campaign (lowest across repeats), matching what
	// `go test -benchmem` reports per benchmark op.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

type report struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Seeds      int    `json:"seeds"`
	Iterations int    `json:"iterations"`
	Repeat     int    `json:"repeat"`
	Rows       []row  `json:"rows"`
}

// parseList parses a comma-separated list of positive ints.
func parseList(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad %s entry %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	seedCount := flag.Int("seeds", 60, "seed corpus size")
	iters := flag.Int("iters", 400, "campaign iterations")
	seed := flag.Int64("seed", 1, "random seed")
	workersList := flag.String("workers", "1,4,8", "comma-separated worker counts to sweep")
	repeat := flag.Int("repeat", 3, "campaigns per worker count (best time wins)")
	out := flag.String("out", "BENCH_campaign.json", "output file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the sweep) to this file")
	topAllocs := flag.Int("topallocs", 15, "allocation sites printed with -memprofile")
	flag.Parse()

	workers := parseList("-workers", *workersList)
	if *memprofile != "" {
		// Sample every allocation so the site report is a census, not an
		// extrapolation. Set before the workload touches the heap.
		runtime.MemProfileRate = 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	seeds := seedgen.Generate(seedgen.DefaultOptions(*seedCount, *seed))
	rep := report{
		Benchmark:  "campaign/classfuzz[stbr]",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seeds:      *seedCount,
		Iterations: *iters,
		Repeat:     *repeat,
	}

	var base float64
	for _, w := range workers {
		cfg := campaign.Config{
			Algorithm:  campaign.Classfuzz,
			Criterion:  coverage.STBR,
			Source:     campaign.FlatSeeds(seeds),
			Iterations: *iters,
			Rand:       *seed,
			RefSpec:    jvm.HotSpot9(),
			Workers:    w,
		}
		best := time.Duration(0)
		var bestAllocs, bestBytes uint64
		var last *campaign.Result
		for r := 0; r < *repeat; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := campaign.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaign (workers=%d): %v\n", w, err)
				os.Exit(1)
			}
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			bytes := after.TotalAlloc - before.TotalAlloc
			if best == 0 || el < best {
				best = el
			}
			if bestAllocs == 0 || allocs < bestAllocs {
				bestAllocs = allocs
				bestBytes = bytes
			}
			last = res
		}
		r := row{
			Workers:     w,
			Iterations:  *iters,
			Tests:       len(last.Test),
			MillisTotal: float64(best.Microseconds()) / 1000,
			ItersPerSec: float64(*iters) / best.Seconds(),
			AllocsPerOp: bestAllocs,
			BytesPerOp:  bestBytes,
		}
		if n := len(last.Gen); n > 0 {
			r.MicrosPerGen = best.Seconds() / float64(n) * 1e6
		}
		if n := len(last.Test); n > 0 {
			r.MicrosTest = best.Seconds() / float64(n) * 1e6
			r.MicrosVerify, r.MicrosExecute = phaseSplit(cfg, n)
		}
		if base == 0 {
			base = r.ItersPerSec
		}
		if base > 0 {
			r.Speedup = r.ItersPerSec / base
		}
		rep.Rows = append(rep.Rows, r)
		fmt.Fprintf(os.Stderr, "workers=%d: %s, %.0f iters/sec, %d tests (%.2fx), %d allocs/op, %d B/op\n",
			w, best.Round(time.Millisecond), r.ItersPerSec, r.Tests, r.Speedup, r.AllocsPerOp, r.BytesPerOp)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		reportAllocSites(*topAllocs)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// phaseSplit runs one telemetry-instrumented campaign for cfg and
// splits the reference VM's per-test wall clock into the verification
// phase (linking) and the rest of the startup pipeline. tests is the
// executed-test count of the identical uninstrumented campaign
// (telemetry is observe-only, so the counts match by construction).
func phaseSplit(cfg campaign.Config, tests int) (verifyµs, executeµs float64) {
	reg := telemetry.New()
	cfg.Telemetry = reg
	if _, err := campaign.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "campaign (instrumented, workers=%d): %v\n", cfg.Workers, err)
		os.Exit(1)
	}
	snap := reg.Snapshot()
	prefix := "jvm." + cfg.RefSpec.Name + ".phase."
	var verifyNs, executeNs int64
	for _, p := range jvm.AllPhases() {
		sum := snap.Hist(prefix + p.String() + "_ns").Sum
		if p == jvm.PhaseLinking {
			verifyNs += sum
		} else {
			executeNs += sum
		}
	}
	return float64(verifyNs) / float64(tests) / 1e3, float64(executeNs) / float64(tests) / 1e3
}

// allocSite aggregates profile records by their innermost frame.
type allocSite struct {
	where   string
	objects int64
	bytes   int64
}

// reportAllocSites prints the top-n allocation sites by allocated
// object count, straight from runtime.MemProfile — no external pprof
// invocation. Records (one per unique stack) are folded by innermost
// frame, so a function allocating from many callers appears once.
func reportAllocSites(n int) {
	var recs []runtime.MemProfileRecord
	size, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, size+64)
		size, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:size]

	sites := map[string]*allocSite{}
	for i := range recs {
		stk := recs[i].Stack()
		if len(stk) == 0 {
			continue
		}
		frames := runtime.CallersFrames(stk)
		fr, _ := frames.Next()
		name := fr.Function
		if name == "" {
			if fn := runtime.FuncForPC(stk[0]); fn != nil {
				name = fn.Name()
			} else {
				name = fmt.Sprintf("pc=%#x", stk[0])
			}
		}
		where := fmt.Sprintf("%s (%s:%d)", name, filepath.Base(fr.File), fr.Line)
		s := sites[where]
		if s == nil {
			s = &allocSite{where: where}
			sites[where] = s
		}
		s.objects += recs[i].AllocObjects
		s.bytes += recs[i].AllocBytes
	}

	ranked := make([]*allocSite, 0, len(sites))
	for _, s := range sites {
		ranked = append(ranked, s)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].objects != ranked[j].objects {
			return ranked[i].objects > ranked[j].objects
		}
		return ranked[i].where < ranked[j].where
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	var total int64
	for _, s := range ranked {
		total += s.objects
	}
	fmt.Fprintf(os.Stderr, "top %d allocation sites (of %d, %d objects total):\n", n, len(ranked), total)
	for _, s := range ranked[:n] {
		pct := 0.0
		if total > 0 {
			pct = float64(s.objects) * 100 / float64(total)
		}
		fmt.Fprintf(os.Stderr, "  %12d objects %5.1f%% %12d B  %s\n", s.objects, pct, s.bytes, s.where)
	}
}
