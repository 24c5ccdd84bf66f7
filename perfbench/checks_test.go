package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/difftest"
	"repro/internal/mutation"
	"repro/internal/service"
)

// smallCampaign runs a short campaign of the workload's shape.
func smallCampaign(t *testing.T) (campaignInput, *campaign.Result) {
	t.Helper()
	in := makeCampaignInputs(7, streamCampaign, 1)[0]
	cfg := in.config()
	cfg.Iterations = 300
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Test) < 2 {
		t.Fatalf("campaign accepted %d tests; the checks need at least two", len(res.Test))
	}
	return in, res
}

func TestReplayReproducesCampaign(t *testing.T) {
	in, res := smallCampaign(t)
	if err := replayCampaign(in, res, 0, newTracer(), nil); err != nil {
		t.Fatalf("replay of an untouched campaign failed: %v", err)
	}
}

func TestReplayRejectsFlippedMutatorID(t *testing.T) {
	in, res := smallCampaign(t)
	i := res.Test[0].Iter
	draws := slices.Clone(res.Draws)
	draws[i].MutatorID = (draws[i].MutatorID + 1) % len(mutation.Registry())
	tampered := *res
	tampered.Draws = draws
	if err := replayCampaign(in, &tampered, 0, nil, nil); err == nil {
		t.Fatalf("replay accepted a draw log with iteration %d's mutator flipped", i)
	}
}

func TestReplayRejectsFlippedSuiteByte(t *testing.T) {
	in, res := smallCampaign(t)
	k := len(res.Test) / 2
	g := *res.Test[k]
	g.Data = slices.Clone(g.Data)
	g.Data[len(g.Data)/2] ^= 0x01
	tampered := *res
	tampered.Test = slices.Clone(res.Test)
	tampered.Test[k] = &g
	if err := replayCampaign(in, &tampered, 0, nil, nil); err == nil {
		t.Fatalf("replay accepted a suite with one flipped byte in test #%d", k)
	}
}

func TestDigestSeesFlippedSuiteByte(t *testing.T) {
	_, res := smallCampaign(t)
	g := *res.Test[0]
	g.Data = slices.Clone(g.Data)
	g.Data[0] ^= 0x80
	tampered := *res
	tampered.Test = slices.Clone(res.Test)
	tampered.Test[0] = &g
	if campaignDigest(res) == campaignDigest(&tampered) {
		t.Fatal("repeat check cannot tell a suite with one flipped byte from the original")
	}
}

func TestDifftestChecks(t *testing.T) {
	_, res := smallCampaign(t)
	suite := make([][]byte, len(res.Test))
	for i, g := range res.Test {
		suite[i] = g.Data
	}
	ref := difftest.NewStandardRunner().Evaluate(suite)
	if err := outsideInPass(suite, ref, 0, newTracer()); err != nil {
		t.Fatalf("outside-in pass disagrees with Evaluate: %v", err)
	}
	again := difftest.NewStandardRunner().Evaluate(suite)
	if err := sameSummary(again, ref); err != nil {
		t.Fatalf("two passes disagree: %v", err)
	}

	moved := difftest.NewStandardRunner().Evaluate(suite)
	moved.PhaseHistogram[4][0]++
	moved.PhaseHistogram[4][1]--
	if sameSummary(moved, ref) == nil {
		t.Fatal("summary check missed a moved histogram entry")
	}
	shifted := difftest.NewStandardRunner().Evaluate(suite)
	for k := range shifted.DistinctVectors {
		shifted.DistinctVectors[k]++
		break
	}
	if len(shifted.DistinctVectors) == 0 || sameSummary(shifted, ref) == nil {
		t.Fatal("summary check missed a changed vector multiplicity")
	}
	if outsideInPass(suite[1:], ref, 0, nil) == nil {
		t.Fatal("outside-in check passed a suite missing a class")
	}
}

func TestCheckDiscrepancies(t *testing.T) {
	good := []service.Discrepancy{{ID: 0, Vector: "00012"}, {ID: 1, Vector: "00000"}, {ID: 2, Vector: "11112"}}
	if err := checkDiscrepancies(good); err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
	for name, bad := range map[string][]service.Discrepancy{
		"gap":            {{ID: 0, Vector: "00012"}, {ID: 2, Vector: "00012"}},
		"not discrepant": {{ID: 0, Vector: "00012"}, {ID: 1, Vector: "22222"}},
		"short vector":   {{ID: 0, Vector: "0012"}, {ID: 1, Vector: "00012"}},
	} {
		if checkDiscrepancies(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmoke runs every workload briefly in both modes: all checks pass
// and each mode reports exactly its declared metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"campaign", "difftest", "daemon"} {
		for _, trace := range []bool{false, true} {
			rep, err := workloads[name](options{seed: 3, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			} else {
				rep.set("peak_rss_mb", peakRSSMB(), "MB") // main adds it
			}
			if rep.failed != 0 || len(rep.problems) != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", name, trace, rep.attempted, rep.failed, rep.problems)
			}
			if err := checkMetricSet(rep.metrics, want); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				for n, m := range rep.metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

// TestMetricDictionary pins BENCHMARK.json and metrics.json to the
// metric sets the program reports.
func TestMetricDictionary(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var dict struct {
		EndToEnd map[string]struct{ Unit, Better string } `json:"end_to_end"`
		PerLayer map[string]struct {
			Unit, Better string
			Workloads    []string `json:"workloads"`
		} `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &dict)

	var names []string
	for _, m := range bench.EndToEnd {
		names = append(names, m.Name)
		if d, ok := dict.EndToEnd[m.Name]; !ok || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end %s: BENCHMARK.json %s/%s, metrics.json %+v", m.Name, m.Unit, m.Better, d)
		}
	}
	sameSet(t, "BENCHMARK.json end_to_end", names, endToEndMetrics)
	names = names[:0]
	for _, m := range bench.PerLayer {
		names = append(names, m.Name)
		d, ok := dict.PerLayer[m.Name]
		if !ok || d.Unit != m.Unit || d.Better != m.Better || m.Unit != perLayerUnit(m.Name) {
			t.Errorf("per-layer %s: BENCHMARK.json %s/%s, metrics.json %+v, reported unit %s", m.Name, m.Unit, m.Better, d, perLayerUnit(m.Name))
		}
	}
	sameSet(t, "BENCHMARK.json per_layer", names, perLayerMetrics)
	if len(dict.EndToEnd) != len(endToEndMetrics) || len(dict.PerLayer) != len(perLayerMetrics) {
		t.Errorf("metrics.json documents %d+%d metrics, the program reports %d+%d",
			len(dict.EndToEnd), len(dict.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := slices.Clone(got), slices.Clone(want)
	sort.Strings(g)
	sort.Strings(w)
	if !slices.Equal(g, w) {
		t.Errorf("%s: %v, program reports %v", what, g, w)
	}
}
