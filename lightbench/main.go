// Command lightbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time against the lightator facade or a
// lightator-serve process, checks every output against a reference
// digest, and prints one JSON result line as the last line of standard
// output. METRICS.md documents the workloads and metrics.
//
//	bash lightbench/run.sh --workload batch-noisy --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run, and the spans
// are written to the output directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	run      time.Duration // measured time, split across the workload's phases
	trace    bool
	serveBin string // lightator-serve binary (serve workloads)
	outDir   string // spans and server logs
	workers  int    // goroutines doing work: nproc
}

// workloads maps each workload name to its runner. A runner returns the
// metrics of its mode (end-to-end untraced, per-layer traced) and the
// operation counts.
var workloads = map[string]func(options) (*outcome, error){
	"serve-process": runServeProcess,
	"batch-noisy":   func(o options) (*outcome, error) { return runBatch(o, batchNoisy) },
	"serve-session": runServeSession,
}

// outcome is a workload's result before printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	spans             *tracer // non-nil in traced runs
}

// record counts one checked operation.
func (oc *outcome) record(ok bool) {
	oc.attempted++
	if !ok {
		oc.failed++
	}
}

func (oc *outcome) correctFrac() float64 {
	if oc.attempted == 0 {
		return 0
	}
	return float64(oc.attempted-oc.failed) / float64(oc.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo identifies the machine a result was measured on.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	// StealS is the CPU time, summed over all CPUs, that the hypervisor
	// gave to other guests during the run. Wall-clock metrics of runs
	// with more steal read slower.
	StealS float64 `json:"steal_s"`
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (USER_HZ = 100 ticks per second); 0 where it cannot be read.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildResult checks that the metrics are exactly the mode's set, fills
// the per-layer metrics the workload does not measure with 0, and
// attaches units.
func buildResult(oc *outcome, workload string, trace bool) (result, error) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	res := result{
		Correct:   oc.failed == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, d := range want {
		v, ok := oc.metrics[d.name]
		switch {
		case trace && !d.measuredOn(workload) && ok:
			return result{}, fmt.Errorf("metric %s is not declared for %s", d.name, workload)
		case (!trace || d.measuredOn(workload)) && !ok:
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range oc.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("metric %s is outside the declared set", name)
		}
	}
	return res, nil
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	flag.StringVar(&o.serveBin, "serve-bin", "", "lightator-serve binary")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory for spans and server logs")
	flag.Parse()

	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "lightbench: need --workload (one of serve-process, batch-noisy, serve-session), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	o.run = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "lightbench: %v\n", err)
		os.Exit(1)
	}

	steal0 := stealSeconds()
	oc, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if oc.spans != nil {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := oc.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "lightbench: %v\n", err)
			os.Exit(1)
		}
	}
	res, err := buildResult(oc, o.workload, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	host, _ := json.Marshal(hostInfo{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(), StealS: stealSeconds() - steal0,
	})
	fmt.Printf("{\"host\": %s}\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
