package main

import (
	"fmt"
	"sort"
)

// endToEndMetrics are the metrics of an untraced run. Every workload
// reports every one; perfbench/metrics.json gives each workload's
// meaning, and BENCHMARK.json their bounds.
var endToEndMetrics = []string{
	"setup_s",
	"peak_rss_mb",
	"ops_per_cpu_s",
	"op_p50_ms",
}

// perLayerMetrics are the metrics of a traced run. Every workload
// reports every one; a layer the workload does not exercise reads 0.
var perLayerMetrics = []string{
	"op_tail_ms",
	"campaign.seed_init_us",
	"campaign.draw_us",
	"campaign.allocs_per_iter",
	"campaign.bytes_per_iter",
	"campaign.unattributed_pct",
	"campaign.prefilter.skip_ratio",
	"campaign.stage.prefilter_us",
	"mcmc.next_us",
	"jimple.clone_us",
	"jimple.lower_us",
	"mutation.apply_us",
	"mutation.applied_ratio",
	"classfile.write_us",
	"classfile.parse_us",
	"jvm.ref.run_us",
	"jvm.ref.phase.parse_us",
	"jvm.ref.phase.loading_us",
	"jvm.ref.phase.linking_us",
	"jvm.ref.phase.initialization_us",
	"jvm.ref.phase.runtime_us",
	"jvm.HotSpot-Java7.run_us",
	"jvm.HotSpot-Java8.run_us",
	"jvm.HotSpot-Java9.run_us",
	"jvm.J9-SDK8.run_us",
	"jvm.GIJ-5.1.0.run_us",
	"jvm.verify.method_memo.hit_ratio",
	"coverage.trace_us",
	"coverage.suite_us",
	"coverage.accept_ratio",
	"difftest.parses_per_class",
	"difftest.vm_runs_per_class",
	"difftest.memo_hit_ratio",
	"difftest.allocs_per_class",
	"difftest.unattributed_pct",
	"service.adopt_ms",
	"service.epoch_wait_ms",
	"service.epoch_ms",
	"service.checkpoint_ms",
	"service.queue_hwm",
	"service.generator_late_ms",
	"service.submit_p50_ms",
	"service.submit_tail_ms",
	"service.unattributed_pct",
	"trace.overhead_pct",
}

// perLayerUnits gives the unit of every per-layer metric by suffix.
func perLayerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_pct", "%"}, {"_ratio", "ratio"},
		{"bytes_per_iter", "B"}, {"_per_iter", "count"}, {"_per_class", "count"}, {"_hwm", "count"},
	} {
		if len(name) >= len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

// fillZeroLayers reports 0 for every per-layer metric the workload's
// traced run did not measure: that layer did no work on this workload.
func fillZeroLayers(rep *report) {
	for _, name := range perLayerMetrics {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, 0, perLayerUnit(name))
		}
	}
}

// checkMetricSet reports any difference between the metrics a run
// produced and the declared set for its mode.
func checkMetricSet(got map[string]metric, want []string) error {
	seen := map[string]bool{}
	var missing, extra []string
	for _, n := range want {
		seen[n] = true
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("metric set mismatch: missing %v, undeclared %v", missing, extra)
}
