package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightator"
)

const (
	// processScenes × processVariants distinct request contents cycle in
	// order. 384 exceeds the server's default 256-entry response cache,
	// so under LRU every request misses it. The cache key omits the
	// seed, so unique seeds alone would not make requests miss.
	processScenes   = 8
	processVariants = 48
	// openLoopRate is the fixed open-loop arrival rate, requests per
	// second, about a third of the closed-loop capacity on 2 vCPUs.
	openLoopRate = 20.0
	sceneSize    = 256
)

// processBodies are the /v1/process request bodies, encoded before any
// clock starts. Content d is base scene d mod processScenes with one
// pixel inverted; the base64 of that pixel is spliced into the scene's
// pre-encoded samples, so no body is copied per request.
type processBodies struct {
	b64    []string   // pre-encoded samples per base scene
	off    []int      // per content: base64 offset of the replaced pixel
	patch  []string   // per content: base64 of the replaced pixel
	expect [][32]byte // per content: sha256 of the expected response body
}

// body returns request k's body and length: content k mod contents, and
// a unique seed.
func (pb *processBodies) body(k, seed int64) (io.Reader, int64, int) {
	d := int(k % int64(len(pb.off)))
	b64 := pb.b64[d%processScenes]
	size := strconv.Itoa(sceneSize)
	parts := []string{
		`{"kernel":"edge","seed":` + strconv.FormatInt(seed, 10) +
			`,"scene":{"h":` + size + `,"w":` + size + `,"c":3,"pix_b64":"`,
		b64[:pb.off[d]], pb.patch[d], b64[pb.off[d]+len(pb.patch[d]):], `"}}`,
	}
	readers := make([]io.Reader, len(parts))
	var n int64
	for i, p := range parts {
		readers[i] = strings.NewReader(p)
		n += int64(len(p))
	}
	return io.MultiReader(readers...), n, d
}

// expectedBody is the exact response body the server must return for a
// plane: the determinism contract makes /v1/process byte-identical to
// the facade.
func expectedBody(plane *lightator.Image) ([32]byte, error) {
	body, err := json.Marshal(lightator.ProcessResponse{Plane: lightator.EncodeImage(plane)})
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(body, '\n')), nil
}

// buildProcessBodies encodes the bodies and computes each content's
// reference digest with the in-process facade (Physical output does not
// depend on the seed). It also returns the base scenes.
func buildProcessBodies(o options, acc *lightator.Accelerator) (*processBodies, []*lightator.Image, error) {
	rng := rand.New(rand.NewSource(o.seed))
	scenes := make([]*lightator.Image, processScenes)
	pb := &processBodies{}
	pixels := make([][]int, processScenes)
	for s := range scenes {
		scenes[s] = structuredScene(rng, sceneSize)
		pb.b64 = append(pb.b64, lightator.EncodeImage(scenes[s]).Pix)
		pixels[s] = rng.Perm(sceneSize * sceneSize)[:processVariants]
	}
	contents := processScenes * processVariants
	const chunk = 16
	for first := 0; first < contents; first += chunk {
		imgs := make([]*lightator.Image, 0, chunk)
		for d := first; d < first+chunk; d++ {
			s, p := d%processScenes, pixels[d%processScenes][d/processScenes]
			img := &lightator.Image{H: sceneSize, W: sceneSize, C: 3, Pix: append([]float64(nil), scenes[s].Pix...)}
			var raw [24]byte
			for c := 0; c < 3; c++ {
				img.Pix[3*p+c] = 1 - img.Pix[3*p+c]
				binary.LittleEndian.PutUint64(raw[8*c:], math.Float64bits(img.Pix[3*p+c]))
			}
			imgs = append(imgs, img)
			pb.off = append(pb.off, 32*p)
			pb.patch = append(pb.patch, base64.StdEncoding.EncodeToString(raw[:]))
		}
		planes, err := acc.ProcessCompressedBatch(imgs, "edge", o.workers)
		if err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
		for _, plane := range planes {
			d, err := expectedBody(plane)
			if err != nil {
				return nil, nil, err
			}
			pb.expect = append(pb.expect, d)
		}
	}
	return pb, scenes, nil
}

// processLoad drives POST /v1/process from nproc connections.
type processLoad struct {
	o    options
	sp   *serverProc
	pb   *processBodies
	next atomic.Int64 // request counter: content and seed
	mu   sync.Mutex
	oc   *outcome
}

// do sends request k and checks the response body's digest. Traced runs
// record the request span and, under it, the compute stage spans the
// server reports in X-Lightator-Stage-Ns (durations only: they are
// placed back to back from the request start).
func (l *processLoad) do(client *http.Client, buf *bytes.Buffer, k int64, phase string, tr *tracer) (bool, time.Time) {
	body, n, d := l.pb.body(k, lightator.DeriveSeed(l.o.seed, int(k)))
	req, err := http.NewRequest(http.MethodPost, l.sp.base+"/v1/process", body)
	if err != nil {
		panic(err) // the URL is built by the benchmark
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	ok := err == nil && resp.StatusCode == http.StatusOK && sha256.Sum256(buf.Bytes()) == l.pb.expect[d]
	l.mu.Lock()
	l.oc.record(ok)
	l.mu.Unlock()
	if tr != nil && err == nil {
		root := tr.add(phase+":POST /v1/process", -1, k, start, end)
		at := start
		for _, kv := range strings.Fields(resp.Header.Get("X-Lightator-Stage-Ns")) {
			name, v, _ := strings.Cut(kv, "=")
			ns, _ := strconv.ParseInt(v, 10, 64)
			tr.add("server."+name, root, k, at, at.Add(time.Duration(ns)))
			at = at.Add(time.Duration(ns))
		}
	}
	return ok, end
}

// closedLoop runs nproc connections back to back for d. It returns the
// block rate of correct responses completed after the first tenth of the
// phase, and the requests sent.
func (l *processLoad) closedLoop(d time.Duration, phase string, tr *tracer) (float64, int) {
	start := time.Now()
	warm, deadline := start.Add(d/10), start.Add(d)
	done := make([][]time.Time, l.o.workers)
	sent := make([]int, l.o.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := newConnClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				ok, end := l.do(client, &buf, l.next.Add(1)-1, phase, tr)
				sent[w]++
				if ok && !end.Before(warm) && !end.After(deadline) {
					done[w] = append(done[w], end)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []time.Time
	n := 0
	for w := range done {
		all = append(all, done[w]...)
		n += sent[w]
	}
	return blockRate(all), n
}

// openLoop sends requests at openLoopRate for d over nproc connections. A
// request that comes due while every connection is busy waits, and its
// latency runs from when it was due. It returns per-request latencies
// (+Inf for a failure), the dispatcher's lateness against the schedule,
// both in ms, and the requests sent.
func (l *processLoad) openLoop(d time.Duration, phase string, tr *tracer) ([]float64, []float64, int) {
	n := int(d.Seconds() * openLoopRate)
	type job struct {
		i   int
		k   int64
		due time.Time
	}
	jobs := make(chan job, n) // holds every send, so dispatch never blocks
	lat := make([]float64, n)
	late := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < l.o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConnClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for j := range jobs {
				ok, end := l.do(client, &buf, j.k, phase, tr)
				lat[j.i] = math.Inf(1)
				if ok {
					lat[j.i] = ms(end.Sub(j.due))
				}
			}
		}()
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / openLoopRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		jobs <- job{i: i, k: l.next.Add(1) - 1, due: due}
	}
	close(jobs)
	wg.Wait()
	return lat, late, n
}

// modeledLive prices one fresh (uncached) /v1/process request on the
// live server: X-Lightator-* headers plus the /metrics energy gauge.
func modeledLive(sp *serverProc, scene *lightator.Image) (modeledFrame, error) {
	body, err := json.Marshal(lightator.NewProcessRequest(lightator.EncodeImage(scene), "edge", nil))
	if err != nil {
		return modeledFrame{}, err
	}
	client := newConnClient()
	defer client.CloseIdleConnections()
	resp, err := client.Post(sp.base+"/v1/process", "application/json", bytes.NewReader(body))
	if err != nil {
		return modeledFrame{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return modeledFrame{}, fmt.Errorf("modeled probe: status %d", resp.StatusCode)
	}
	var mf modeledFrame
	if mf.joules, mf.analogOps, err = parseModeled(resp.Header); err != nil {
		return modeledFrame{}, err
	}
	var snap lightator.ServerMetrics
	if err := sp.getJSON("/metrics?format=json", &snap); err != nil {
		return modeledFrame{}, err
	}
	mf.kfpsPerW = snap.Energy["process:edge"].ModeledKFPSPerW
	return mf, nil
}

func runServeProcess(o options) (*outcome, error) {
	oc := &outcome{metrics: make(map[string]float64)}
	m := oc.metrics
	acc, err := lightator.New(edgeSpec.config(edgeSpec.fidelity))
	if err != nil {
		return nil, err
	}
	pb, scenes, err := buildProcessBodies(o, acc)
	if err != nil {
		return nil, err
	}
	sp, setup, err := setupServers(o, serverArgs(o)...)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	l := &processLoad{o: o, sp: sp, pb: pb, oc: oc}

	if !o.trace {
		m["setup_s"] = setup
		m["frames_per_s"], _ = l.closedLoop(o.run/2, "closed", nil)
		lat, _, _ := l.openLoop(o.run/2, "open", nil)
		latencyMetrics(m, lat)
		m["correct_frac"] = oc.correctFrac()
		if m["peak_rss_mb"], err = sp.peakRSSMB(); err != nil {
			return nil, err
		}
		if m["reference_agreement"], err = edgeAgreement(acc, o.workers); err != nil {
			return nil, err
		}
	} else if err := l.traced(acc, scenes); err != nil {
		return nil, err
	}
	mf, err := modeledLive(sp, scenes[0])
	if err != nil {
		return nil, err
	}
	mf.fill(m, o.trace)
	return oc, nil
}

// traced is serve-process's per-layer run: untraced then traced closed
// loop (the tracing overhead), a traced open loop (server overhead,
// generator lateness), then in-process probes of the codec and of each
// compute layer at the served configuration.
func (l *processLoad) traced(acc *lightator.Accelerator, scenes []*lightator.Image) error {
	m := l.oc.metrics
	tr := newTracer()
	l.oc.spans = tr
	fpsU, _ := l.closedLoop(l.o.run/4, "closed", nil)
	c0, err := l.sp.counters()
	if err != nil {
		return err
	}
	a0, g0, err := l.sp.runtimeCounters()
	if err != nil {
		return err
	}
	fpsT, nClosed := l.closedLoop(l.o.run/4, "closed", tr)
	_, late, nOpen := l.openLoop(l.o.run/4, "open", tr)
	c1, err := l.sp.counters()
	if err != nil {
		return err
	}
	a1, g1, err := l.sp.runtimeCounters()
	if err != nil {
		return err
	}
	fillServerLayers(m, c0, c1)
	fillRuntimeLayers(m, a0, g0, a1, g1, nClosed+nOpen)
	m["trace.overhead_frac"] = 1 - fpsT/fpsU
	m["loadgen.late_ms"] = quantile(late, tailQuantile)

	bodies := make([][]byte, 4)
	for i := range bodies {
		r, _, _ := l.pb.body(int64(i), int64(i))
		if bodies[i], err = io.ReadAll(r); err != nil {
			return err
		}
	}
	out, err := acc.ProcessCompressed(scenes[0], "edge")
	if err != nil {
		return err
	}
	decode := func(b []byte) (*lightator.Image, error) {
		var req lightator.ProcessRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		return lightator.DecodeImage(req.Scene)
	}
	encode := func(im *lightator.Image) ([]byte, error) {
		return json.Marshal(lightator.ProcessResponse{Plane: lightator.EncodeImage(im)})
	}
	if err := codecProbe(m, bodies, decode, encode, out, tr); err != nil {
		return err
	}
	m["server.overhead_ms"] = medianMS(tr.selfTimes("open:POST /v1/process")) - m["server.decode_ms"] - m["server.encode_ms"]

	br := &batchRun{b: edgeSpec, o: l.o, acc: acc, scenes: scenes, oc: l.oc}
	if err := br.probeLayers(l.o.run/4, tr); err != nil {
		return err
	}
	if err := mvmProbes(m, edgeSpec.fidelity); err != nil {
		return err
	}
	return nil
}
