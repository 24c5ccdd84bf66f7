// Command perfbench is the repository's benchmark of the classfuzz
// pipeline. It runs one workload for a fixed wall-clock window and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload campaign|difftest|daemon \
//	    --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]
//	bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// no instrumentation. With --trace 1 they are the per-layer ledger: the
// campaign and difftest workloads run untraced for half the window (the
// wall-clock reference), then replay the same inputs through each
// layer's exported calls one by one, timing every call from outside the
// program; the daemon workload splits its latency from /api/status
// transitions and its /metrics.json. perfbench/metrics.json documents
// every metric, perfbench/baseline.json records their steadiness.
//
// Every input is generated from --seed; the program under test only
// receives the generated inputs. Failed output checks fail the run: the
// result reads "correct": false and the process exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
}

// report is what a workload hands back to main: operation counts,
// failed checks, and the metrics of the requested mode. Extra holds
// metrics kept out of the contract line (the per-workload names of the
// generic end-to-end metrics, error_ratio, sample counts) for the
// human-readable report and the --out file.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	extra     map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit string) {
	if r.extra == nil {
		r.extra = map[string]metric{}
	}
	r.extra[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(options) (*report, error){
	"campaign": runCampaignWorkload,
	"difftest": runDifftestWorkload,
	"daemon":   runDaemonWorkload,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: campaign, difftest or daemon")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced replay")
	out := flag.String("out", "", "append the full result (machine, all metrics) as one JSON line to this file")
	spans := flag.String("spans", "", "with --trace 1, write the campaign or difftest replay's spans to this file as JSON lines")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload campaign|difftest|daemon, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rss := peakRSSMB()
	if !opts.trace {
		rep.set("peak_rss_mb", rss, "MB")
	}
	want := endToEndMetrics
	if opts.trace {
		want = perLayerMetrics
	}
	if err := checkMetricSet(rep.metrics, want); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	errRatio := 0.0
	if rep.attempted > 0 {
		errRatio = float64(rep.failed) / float64(rep.attempted)
	}
	rep.note("error_ratio", errRatio, "ratio")
	correct := rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0

	m := machine()
	printHuman(*workload, opts, rep, m, correct)
	if *out != "" {
		if err := appendResult(*out, *workload, opts, rep, m, correct); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printHuman writes the readable report to standard error: the machine,
// every metric by name with its unit, and any failed check.
func printHuman(workload string, opts options, rep *report, m map[string]string, correct bool) {
	mode := "end-to-end"
	if opts.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g %s\n", workload, opts.seed, opts.seconds, mode)
	fmt.Fprintf(os.Stderr, "  machine: numcpu=%s gomaxprocs=%s go=%s cpu=%q commit=%s\n",
		m["numcpu"], m["gomaxprocs"], m["go"], m["cpu"], m["commit"])
	for _, set := range []map[string]metric{rep.metrics, rep.extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v\n", rep.attempted, rep.failed, correct)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", p)
	}
}

// resultRecord is one line of an --out file: everything the contract
// line carries plus the machine and the extra metrics.
type resultRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Time      string            `json:"time"`
	Machine   map[string]string `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
}

func appendResult(path, workload string, opts options, rep *report, m map[string]string, correct bool) error {
	rec := resultRecord{
		Workload: workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Time: time.Now().UTC().Format(time.RFC3339), Machine: m,
		Correct: correct, Attempted: rep.attempted, Failed: rep.failed, Problems: rep.problems,
		Metrics: rep.metrics, Extra: rep.extra,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
