package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"lightator"
)

// batchSpec is an in-process workload over the facade's batch calls.
type batchSpec struct {
	fidelity lightator.Fidelity
	size     int    // sensor rows = cols
	target   string // kernel (ProcessCompressedBatch) or model (InferBatch)
	infer    bool
}

// batchNoisy runs the infer layer at PhysicalNoisy, where noise reseeding
// dominates. 64² frames keep a run short: noisy edge at 256² costs
// hundreds of milliseconds per frame.
var batchNoisy = batchSpec{fidelity: lightator.PhysicalNoisy, size: 64, target: "tiny-mlp", infer: true}

// batchFrames is the number of scenes in each timed batch call.
const batchFrames = 16

// edgeSpec is the served configuration, Physical edge on 256² frames,
// for the serve workloads' layer probes and reference agreement.
var edgeSpec = batchSpec{fidelity: lightator.Physical, size: sceneSize, target: "edge"}

// setupReps is how many times set-up is timed; setup_s is the median.
const setupReps = 15

func (b batchSpec) config(f lightator.Fidelity) lightator.Config {
	cfg := lightator.DefaultConfig()
	cfg.Fidelity = f
	cfg.SensorRows, cfg.SensorCols = b.size, b.size
	return cfg
}

// facadeName is the span name of the workload's batch call.
func (b batchSpec) facadeName() string {
	if b.infer {
		return "lightator.InferBatch"
	}
	return "lightator.ProcessCompressedBatch"
}

// call runs the workload's facade batch path: one output vector (plane
// samples or logits) per scene.
func (b batchSpec) call(acc *lightator.Accelerator, scenes []*lightator.Image, workers int) ([][]float64, error) {
	if b.infer {
		return acc.InferBatch(scenes, b.target, workers)
	}
	planes, err := acc.ProcessCompressedBatch(scenes, b.target, workers)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(planes))
	for i, p := range planes {
		out[i] = p.Pix
	}
	return out, nil
}

// digests hashes each output of a reference call at one worker (the
// facade's batch output does not depend on the worker count).
func (b batchSpec) digests(acc *lightator.Accelerator, scenes []*lightator.Image) ([][32]byte, error) {
	outs, err := b.call(acc, scenes, 1)
	if err != nil {
		return nil, err
	}
	ds := make([][32]byte, len(outs))
	for i, o := range outs {
		ds[i] = digestFloats(o)
	}
	return ds, nil
}

// matches reports whether output i of a call exists and has the
// reference digest.
func matches(outs [][]float64, err error, i int, ref [32]byte) bool {
	return err == nil && i < len(outs) && digestFloats(outs[i]) == ref
}

// batchRun holds one batch workload's state across its phases.
type batchRun struct {
	b      batchSpec
	o      options
	acc    *lightator.Accelerator
	scenes []*lightator.Image
	refs   [][32]byte // frame i of a batch call over scenes
	single [][32]byte // scene i alone, a batch of one
	oc     *outcome
}

// throughput repeats the batch call over all scenes for d and returns the
// block rate of correct frames, on a clock that runs only inside the
// calls, and the frames attempted.
func (r *batchRun) throughput(d time.Duration, tr *tracer) (float64, int) {
	var inCalls time.Time
	done := []time.Time{inCalls} // the first block starts before the first call
	frames := 0
	deadline := time.Now().Add(d)
	for call := 0; call < 3 || time.Now().Before(deadline); call++ {
		start := time.Now()
		outs, err := r.b.call(r.acc, r.scenes, r.o.workers)
		end := time.Now()
		tr.add(r.b.facadeName(), -1, int64(call), start, end)
		inCalls = inCalls.Add(end.Sub(start))
		for i := range r.scenes {
			ok := matches(outs, err, i, r.refs[i])
			r.oc.record(ok)
			if ok {
				done = append(done, inCalls)
			}
		}
		frames += len(r.scenes)
	}
	return blockRate(done), frames
}

// latency times single-frame calls (a batch of one, one caller, closed
// loop) for d: the latency an in-process caller of one frame sees.
func (r *batchRun) latency(d time.Duration) []float64 {
	var lats []float64
	deadline := time.Now().Add(d)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		k := i % len(r.scenes)
		start := time.Now()
		outs, err := r.b.call(r.acc, r.scenes[k:k+1], r.o.workers)
		lat := ms(time.Since(start))
		ok := matches(outs, err, 0, r.single[k])
		r.oc.record(ok)
		if !ok {
			lat = math.Inf(1)
		}
		lats = append(lats, lat)
	}
	return lats
}

// runBatch runs a model workload in process over InferBatch.
func runBatch(o options, b batchSpec) (*outcome, error) {
	r := &batchRun{b: b, o: o, oc: &outcome{metrics: make(map[string]float64)}}
	r.scenes = structuredScenes(o.seed, batchFrames, b.size)
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	warm := r.scenes[:min(o.workers, len(r.scenes))]
	for i := 0; i < reps; i++ {
		// The previous set-up's accelerator and garbage stay out of this
		// set-up's time and out of peak_rss_mb.
		r.acc = nil
		runtime.GC()
		start := time.Now()
		acc, err := lightator.New(b.config(b.fidelity))
		if err != nil {
			return nil, err
		}
		if _, err := b.call(acc, warm, o.workers); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.acc = acc
	}
	var err error
	if r.refs, err = b.digests(r.acc, r.scenes); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for i := range r.scenes {
		d, err := b.digests(r.acc, r.scenes[i:i+1])
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		r.single = append(r.single, d[0])
	}

	runtime.GC() // reference garbage stays out of the timed phases
	m := r.oc.metrics
	if o.trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
	} else {
		m["setup_s"] = median(setups)
		m["frames_per_s"], _ = r.throughput(o.run/2, nil)
		latencyMetrics(m, r.latency(o.run/2))
		m["correct_frac"] = r.oc.correctFrac()
		if m["peak_rss_mb"], err = peakRSSMB(strconv.Itoa(os.Getpid())); err != nil {
			return nil, err
		}
		if m["reference_agreement"], err = r.acc.ModelAgreement(b.target, modelAgreementFrames); err != nil {
			return nil, err
		}
	}
	mf, err := r.modeled()
	if err != nil {
		return nil, err
	}
	mf.fill(m, o.trace)
	return r.oc, nil
}

func (r *batchRun) modeled() (modeledFrame, error) {
	scene := lightator.EncodeImage(r.scenes[0])
	return modeledInProcess(r.acc, "/v1/infer", "infer:"+r.b.target,
		lightator.InferRequest{Model: r.b.target, Scene: &scene})
}

// traced is the per-layer run: an untraced and a traced throughput phase
// (their ratio is the tracing overhead), then probes that time each
// layer's facade call over the same scenes.
func (r *batchRun) traced() error {
	m := r.oc.metrics
	tr := newTracer()
	r.oc.spans = tr
	fpsU, _ := r.throughput(r.o.run/3, nil)
	var m0, m1 memCounter
	m0.read()
	fpsT, frames := r.throughput(r.o.run/3, tr)
	m1.read()
	m["trace.overhead_frac"] = 1 - fpsT/fpsU
	fillRuntimeLayers(m, float64(m0.totalAlloc), float64(m0.numGC), float64(m1.totalAlloc), float64(m1.numGC), frames)

	if err := r.probeLayers(r.o.run/3, tr); err != nil {
		return err
	}
	if err := mvmProbes(m, r.b.fidelity); err != nil {
		return err
	}
	return nil
}

// layerCall is one probed facade call: the scenes through a layer prefix
// of the workload's path.
type layerCall struct {
	name string
	run  func() error
}

// minProbes is the fewest timed repetitions of each probed call, so
// that a short run's medians still sit inside layerSumTolerance.
const minProbes = 15

// layerSumTolerance is the stated tolerance of trace.unattributed_frac:
// the probed self times of capture, CA and the kernel or model must sum
// to the untraced per-frame time of the workload's batch call within
// this share of it, or the traced run fails.
const layerSumTolerance = 0.25

// probeLayers times, for d, the nested-prefix facade calls CaptureBatch
// ⊂ AcquireCompressedBatch ⊂ the workload's call, each over the same
// scenes at nproc workers, plus the workload's call at one worker. The
// facade reports no inner stage times, so a layer's self time is the
// difference between consecutive prefixes. Each repetition first times
// the workload's call untraced, with no span or memory reading around
// it, so the untraced frame time shares the probes' conditions (on a
// serve workload, the idle server process beside them).
func (r *batchRun) probeLayers(d time.Duration, tr *tracer) error {
	n := float64(len(r.scenes))
	w := r.o.workers
	calls := []layerCall{
		{"lightator.CaptureBatch", func() error { _, err := r.acc.CaptureBatch(r.scenes, w); return err }},
		{"lightator.AcquireCompressedBatch", func() error { _, err := r.acc.AcquireCompressedBatch(r.scenes, w); return err }},
		{r.b.facadeName(), func() error { _, err := r.b.call(r.acc, r.scenes, w); return err }},
		{r.b.facadeName() + "@1worker", func() error { _, err := r.b.call(r.acc, r.scenes, 1); return err }},
	}
	// One untimed pass, so no probe times a call's first run after the
	// other calls or the load phases.
	for _, c := range calls {
		if err := c.run(); err != nil {
			return fmt.Errorf("probe %s: %w", c.name, err)
		}
	}
	per := make([][3][]float64, len(calls)) // per call: ms, allocs, KB per frame
	var untraced []float64                  // ms per frame
	deadline := time.Now().Add(d)
	for it := 0; it < minProbes || time.Now().Before(deadline); it++ {
		start := time.Now()
		if _, err := r.b.call(r.acc, r.scenes, w); err != nil {
			return fmt.Errorf("untraced %s: %w", r.b.facadeName(), err)
		}
		untraced = append(untraced, ms(time.Since(start))/n)

		rootStart := time.Now()
		type child struct{ start, end time.Time }
		children := make([]child, len(calls))
		for i, c := range calls {
			var m0, m1 memCounter
			m0.read()
			start := time.Now()
			if err := c.run(); err != nil {
				return fmt.Errorf("probe %s: %w", c.name, err)
			}
			end := time.Now()
			m1.read()
			children[i] = child{start, end}
			per[i][0] = append(per[i][0], ms(end.Sub(start))/n)
			per[i][1] = append(per[i][1], float64(m1.mallocs-m0.mallocs)/n)
			per[i][2] = append(per[i][2], float64(m1.totalAlloc-m0.totalAlloc)/1024/n)
		}
		root := tr.add("probe", -1, int64(it), rootStart, time.Now())
		for i, c := range calls {
			tr.add(c.name, root, int64(it), children[i].start, children[i].end)
		}
	}
	// Differences of per-iteration values, then the median.
	diff := func(k, a, b int) float64 {
		xs := make([]float64, len(per[a][k]))
		for i := range xs {
			xs[i] = per[a][k][i] - per[b][k][i]
		}
		return median(xs)
	}
	m := r.oc.metrics
	m["sensor.capture_ms"] = median(per[0][0])
	m["sensor.capture_allocs"] = median(per[0][1])
	m["sensor.capture_kb"] = median(per[0][2])
	m["oc.ca_ms"] = diff(0, 1, 0)
	m["oc.ca_allocs"] = diff(1, 1, 0)
	if r.b.infer {
		m["infer.tiny_mlp_ms"] = diff(0, 2, 1)
	} else {
		m["kernels.edge_ms"] = diff(0, 2, 1)
		m["kernels.edge_allocs"] = diff(1, 2, 1)
	}
	ratios := make([]float64, len(per[2][0]))
	for i := range ratios {
		ratios[i] = per[3][0][i] / per[2][0][i]
	}
	m["pipeline.speedup"] = median(ratios)

	top := m["infer.tiny_mlp_ms"]
	if !r.b.infer {
		top = m["kernels.edge_ms"]
	}
	frameMS := median(untraced)
	u := math.Abs(1 - (m["sensor.capture_ms"]+m["oc.ca_ms"]+top)/frameMS)
	m["trace.unattributed_frac"] = u
	if u > layerSumTolerance || math.IsNaN(u) {
		return fmt.Errorf("layer times sum to %.3f ms per frame, untraced %.3f ms: unattributed %.3f exceeds %.2f",
			m["sensor.capture_ms"]+m["oc.ca_ms"]+top, frameMS, u, layerSumTolerance)
	}
	return nil
}

// mvmProbes times MatVecBatch on a fixed 64×64 matrix over 64 vectors at
// one worker, at Physical and PhysicalNoisy: oc.mvm_* at the workload's
// fidelity and the noisy/physical ratio.
func mvmProbes(m map[string]float64, fidelity lightator.Fidelity) error {
	rng := rand.New(rand.NewSource(64))
	weights := make([][]float64, 64)
	acts := make([][]float64, 64)
	for i := range weights {
		weights[i] = make([]float64, 64)
		acts[i] = make([]float64, 64)
		for j := range weights[i] {
			weights[i][j] = 2*rng.Float64() - 1
			acts[i][j] = rng.Float64()
		}
	}
	us := map[lightator.Fidelity]float64{}
	for _, f := range []lightator.Fidelity{lightator.Physical, lightator.PhysicalNoisy} {
		acc, err := lightator.New(batchSpec{size: 64}.config(f))
		if err != nil {
			return err
		}
		if _, err := acc.MatVecBatch(weights, acts, 1); err != nil {
			return err
		}
		var times, allocs []float64
		for rep := 0; rep < 5; rep++ {
			var m0, m1 memCounter
			m0.read()
			start := time.Now()
			if _, err := acc.MatVecBatch(weights, acts, 1); err != nil {
				return err
			}
			el := time.Since(start)
			m1.read()
			times = append(times, float64(el)/float64(time.Microsecond)/float64(len(acts)))
			allocs = append(allocs, float64(m1.mallocs-m0.mallocs)/float64(len(acts)))
		}
		us[f] = median(times)
		if f == fidelity {
			m["oc.mvm_us"] = us[f]
			m["oc.mvm_allocs"] = median(allocs)
		}
	}
	m["oc.mvm_noisy_over_physical"] = us[lightator.PhysicalNoisy] / us[lightator.Physical]
	return nil
}
