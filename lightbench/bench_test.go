package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"lightator"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	var runnable []string
	for name := range workloads {
		runnable = append(runnable, name)
	}
	sort.Strings(declared)
	sort.Strings(runnable)
	if !reflect.DeepEqual(declared, runnable) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", declared, runnable)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, program []metricDef) {
		var got []struct{ Name, Unit string }
		for _, d := range program {
			got = append(got, struct{ Name, Unit string }{d.name, d.unit})
		}
		if !reflect.DeepEqual(declared, got) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, declared, got)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestQuantileCountsFailures(t *testing.T) {
	lat := []float64{1, 2, 3, 4, math.Inf(1)}
	if got := median(lat); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(lat, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failure in the top decile = %v, want +Inf", got)
	}
	m := map[string]float64{}
	latencyMetrics(m, lat)
	if m["latency_tail_ms"] <= 0 || math.IsInf(m["latency_tail_ms"], 0) {
		t.Errorf("latency_tail_ms = %v, want a finite failure value", m["latency_tail_ms"])
	}
}

// TestBlockRateResistsAStall checks that one slow block does not move
// the median block rate, and that a phase shorter than a block still
// has a rate.
func TestBlockRateResistsAStall(t *testing.T) {
	var done []time.Time
	at := time.Unix(0, 0)
	for i := 0; i < 200; i++ { // 100 frames/s for 2 s
		at = at.Add(10 * time.Millisecond)
		done = append(done, at)
	}
	at = at.Add(2 * time.Second) // a stall
	for i := 0; i < 100; i++ {
		at = at.Add(10 * time.Millisecond)
		done = append(done, at)
	}
	if got := blockRate(done); math.Abs(got-100) > 1e-9 {
		t.Errorf("block rate with a stall = %v, want 100", got)
	}
	short := []time.Time{at, at.Add(100 * time.Millisecond), at.Add(200 * time.Millisecond)}
	if got := blockRate(short); math.Abs(got-10) > 1e-9 {
		t.Errorf("block rate of a short phase = %v, want 10", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("req", -1, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(50))  // overlaps a: covered 10..50
	tr.add("c", root, 1, at(90), at(120)) // clipped to 90..100
	got := tr.selfTimes("req")
	if len(got) != 1 || got[0] != 50*time.Millisecond {
		t.Errorf("self time = %v, want [50ms]", got)
	}
}

func TestSeqFrameSteps(t *testing.T) {
	for i := 1; i < 100; i++ {
		if d := seqFrame(i) - seqFrame(i-1); d != 1 && d != -1 {
			t.Fatalf("frames %d -> %d jump by %d", i-1, i, d)
		}
	}
}

// TestProcessBodiesDecode checks the spliced bodies: each decodes to its
// variant scene and distinct contents never share bytes, so the response
// cache cannot serve them.
func TestProcessBodiesDecode(t *testing.T) {
	acc, err := lightator.New(lightator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pb, scenes, err := buildProcessBodies(options{seed: 3, workers: 2}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pb.off); n <= 256 {
		t.Fatalf("%d contents do not exceed the 256-entry response cache", n)
	}
	seen := map[string]bool{}
	for k := int64(0); k < int64(len(pb.off)); k += 7 {
		r, n, d := pb.body(k, k)
		data, err := io.ReadAll(r)
		if err != nil || int64(len(data)) != n {
			t.Fatalf("body %d: %d bytes, declared %d, err %v", k, len(data), n, err)
		}
		var req lightator.ProcessRequest
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatalf("body %d: %v", k, err)
		}
		img, err := lightator.DecodeImage(req.Scene)
		if err != nil {
			t.Fatal(err)
		}
		base := scenes[d%processScenes]
		changed := 0
		for i := range img.Pix {
			if img.Pix[i] != base.Pix[i] {
				changed++
			}
		}
		if changed == 0 || changed > 3 {
			t.Errorf("content %d differs from its base scene in %d samples, want 1..3", d, changed)
		}
		if seen[req.Scene.Pix] {
			t.Errorf("content %d repeats an earlier content", d)
		}
		seen[req.Scene.Pix] = true
	}
}

// serveBin builds lightator-serve once for the serve workloads.
func serveBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lightator-serve")
	out, err := exec.Command("go", "build", "-o", bin, "lightator/cmd/lightator-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("build lightator-serve: %v\n%s", err, out)
	}
	return bin
}

// deterministic lists, per mode, the metrics that must repeat exactly
// between two runs with the same seed.
var deterministic = map[bool][]string{
	false: {"correct_frac", "modeled_kfps_per_w", "reference_agreement"},
	true:  {"server.cache_hit_frac", "session.blocks_reused_frac", "oc.analog_ops_per_frame"},
}

// TestWorkloadsBrief runs every workload briefly, twice per mode, and
// checks completeness, correctness and the exact repeat of deterministic
// metrics.
func TestWorkloadsBrief(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := serveBin(t)
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			var first map[string]metricValue
			for rep := 0; rep < 2; rep++ {
				o := options{workload: name, seed: 5, run: 2 * time.Second, trace: trace,
					serveBin: bin, outDir: t.TempDir(), workers: 2}
				oc, err := run(o)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				res, err := buildResult(oc, name, trace)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
				}
				if !trace && res.Metrics["correct_frac"].Value != 1 {
					t.Errorf("%s: correct_frac %v", name, res.Metrics["correct_frac"].Value)
				}
				if trace {
					t.Logf("%s: trace.unattributed_frac %.3f", name, res.Metrics["trace.unattributed_frac"].Value)
				}
				if trace && name == "serve-process" && res.Metrics["server.cache_hit_frac"].Value != 0 {
					t.Errorf("serve-process: server.cache_hit_frac %v, want 0", res.Metrics["server.cache_hit_frac"].Value)
				}
				if rep == 0 {
					first = res.Metrics
					continue
				}
				for _, k := range deterministic[trace] {
					if a, b := first[k].Value, res.Metrics[k].Value; a != b {
						t.Errorf("%s: %s differs between runs: %v vs %v", name, k, a, b)
					}
				}
			}
		}
	}
}
