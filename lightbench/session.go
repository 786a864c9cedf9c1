package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"lightator"
)

const (
	// sessionFrames distinct frames; the session sequence steps forward
	// and back through them, so consecutive frames always differ by one
	// step of the moving square.
	sessionFrames = 16
	// cameraRate is the paced phase's frame rate, frames per second:
	// under half the unpaced capacity even when the host runs slow, so
	// the paced latency measures service, not a growing queue.
	cameraRate = 12.0
)

// sessionSequence renders a mostly-static sequence: one structured
// background with a bright square, a sixteenth of the frame wide, moving
// diagonally by a thirty-second of the frame per step.
func sessionSequence(seed int64) []*lightator.Image {
	const n = sceneSize
	base := structuredScene(rand.New(rand.NewSource(seed)), n)
	frames := make([]*lightator.Image, sessionFrames)
	for f := range frames {
		im := &lightator.Image{H: n, W: n, C: 3, Pix: append([]float64(nil), base.Pix...)}
		y0, x0 := n/8+f*n/64, n/8+f*n/32
		for y := y0; y < y0+n/16; y++ {
			for x := x0; x < x0+n/16; x++ {
				for c := 0; c < 3; c++ {
					im.Pix[(y*sceneSize+x)*3+c] = 0.95
				}
			}
		}
		frames[f] = im
	}
	return frames
}

// seqFrame is the frame sent at session index i (forward, then back).
func seqFrame(i int) int {
	period := 2 * (sessionFrames - 1)
	j := i % period
	if j >= sessionFrames {
		j = period - j
	}
	return j
}

// sessionLoad streams one process/edge session over raw HTTP/1.1.
type sessionLoad struct {
	o     options
	sp    *serverProc
	id    string
	lines [][]byte   // pre-encoded NDJSON frame lines
	refs  [][32]byte // sha256 of each frame's expected plane samples
	sent  int        // frames sent in earlier streams: the next index
	oc    *outcome
}

// streamResult is one stream phase's observations.
type streamResult struct {
	lat           []float64   // paced: ms from due to result, +Inf on failure
	late          []float64   // paced: writer lateness, ms
	arrivals      []time.Time // arrival time of each correct result
	reused, total int         // delta-reuse blocks over the phase
	sent          int
}

// resultLine is one NDJSON response line: a frame result or the summary.
type resultLine struct {
	Index        int                  `json:"index"`
	Plane        *lightator.ImageWire `json:"plane"`
	BlocksTotal  int                  `json:"blocks_total"`
	BlocksReused int                  `json:"blocks_reused"`
	Error        json.RawMessage      `json:"error"`
	Done         bool                 `json:"done"`
}

// stream runs one POST /v1/session/{id}/frames request. Paced, it sends
// count frames at cameraRate; unpaced, it sends as fast as the server's
// window and TCP allow until d has passed. The request body is written
// as HTTP/1.1 chunks on a raw connection while results are read from
// the same connection: net/http's client cannot stream both ways.
func (s *sessionLoad) stream(paced bool, count int, d time.Duration, tr *tracer, phase string) (streamResult, error) {
	host := strings.TrimPrefix(s.sp.base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return streamResult{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(d + 60*time.Second))
	head := "POST /v1/session/" + s.id + "/frames HTTP/1.1\r\nHost: " + host +
		"\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := io.WriteString(conn, head); err != nil {
		return streamResult{}, err
	}

	first := s.sent
	t0 := time.Now().Add(10 * time.Millisecond)
	due := func(j int) time.Time { return t0.Add(time.Duration(float64(j) / cameraRate * float64(time.Second))) }
	deadline := t0.Add(d)
	type written struct {
		n    int
		late []float64
		err  error
	}
	done := make(chan written, 1)
	go func() {
		var w written
		for j := 0; ; j++ {
			if paced {
				if j == count {
					break
				}
				time.Sleep(time.Until(due(j)))
				w.late = append(w.late, ms(time.Since(due(j))))
			} else if !time.Now().Before(deadline) {
				break
			}
			line := s.lines[seqFrame(first+j)]
			bufs := net.Buffers{[]byte(fmt.Sprintf("%x\r\n", len(line))), line, []byte("\r\n")}
			if _, w.err = bufs.WriteTo(conn); w.err != nil {
				break
			}
			w.n++
		}
		if w.err == nil {
			_, w.err = io.WriteString(conn, "0\r\n\r\n")
		}
		done <- w
	}()

	var res streamResult
	resp, err := http.ReadResponse(bufio.NewReaderSize(conn, 1<<20), nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("frame stream: status %d", resp.StatusCode)
	}
	results := 0
	if err == nil {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			at := time.Now()
			var ln resultLine
			if err = json.Unmarshal(sc.Bytes(), &ln); err != nil {
				break
			}
			if ln.Done {
				break
			}
			results++
			j := ln.Index - first
			ok := ln.Error == nil && ln.Plane != nil && ln.Index >= first &&
				sha256.Sum256([]byte(ln.Plane.Pix)) == s.refs[seqFrame(ln.Index)]
			s.oc.record(ok)
			res.reused += ln.BlocksReused
			res.total += ln.BlocksTotal
			if ok {
				res.arrivals = append(res.arrivals, at)
			}
			if paced {
				lat := math.Inf(1)
				if ok {
					lat = ms(at.Sub(due(j)))
					tr.add(phase+":session.frame", -1, int64(ln.Index), due(j), at)
				}
				res.lat = append(res.lat, lat)
			} else if ok {
				tr.add(phase+":session.result", -1, int64(ln.Index), at, at)
			}
		}
		if err == nil {
			err = sc.Err()
		}
	}
	if err != nil {
		conn.Close() // unblocks the writer
	}
	w := <-done
	if err == nil {
		err = w.err
	}
	res.late, res.sent = w.late, w.n
	s.sent += w.n
	// Frames sent without a result count as failures.
	for i := results; i < w.n; i++ {
		s.oc.record(false)
		if paced {
			res.lat = append(res.lat, math.Inf(1))
		}
	}
	return res, err
}

// rate is the block rate of correct results that arrived in the last
// nine tenths of an unpaced phase of length d started at start.
func (r streamResult) rate(start time.Time, d time.Duration) float64 {
	warm, end := start.Add(d/10), start.Add(d)
	var done []time.Time
	for _, at := range r.arrivals {
		if !at.Before(warm) && !at.After(end) {
			done = append(done, at)
		}
	}
	return blockRate(done)
}

func (s *sessionLoad) unpaced(d time.Duration, tr *tracer, phase string) (float64, streamResult, error) {
	start := time.Now()
	res, err := s.stream(false, 0, d, tr, phase)
	return res.rate(start, d), res, err
}

func runServeSession(o options) (*outcome, error) {
	oc := &outcome{metrics: make(map[string]float64)}
	m := oc.metrics
	frames := sessionSequence(o.seed)
	acc, err := lightator.New(edgeSpec.config(edgeSpec.fidelity))
	if err != nil {
		return nil, err
	}
	s := &sessionLoad{o: o, oc: oc}
	planes, err := acc.ProcessCompressedBatch(frames, "edge", o.workers)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for i, f := range frames {
		line, err := json.Marshal(lightator.SessionFrame{Scene: lightator.EncodeImage(f)})
		if err != nil {
			return nil, err
		}
		s.lines = append(s.lines, append(line, '\n'))
		s.refs = append(s.refs, sha256.Sum256([]byte(lightator.EncodeImage(planes[i]).Pix)))
	}
	sp, setup, err := setupServers(o, serverArgs(o)...)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	s.sp = sp
	if s.id, err = openSession(sp); err != nil {
		return nil, err
	}

	if !o.trace {
		m["setup_s"] = setup
		paced, err := s.stream(true, int(cameraRate*(o.run/2).Seconds()), o.run/2, nil, "paced")
		if err != nil {
			return nil, err
		}
		latencyMetrics(m, paced.lat)
		if m["frames_per_s"], _, err = s.unpaced(o.run/2, nil, "unpaced"); err != nil {
			return nil, err
		}
		m["correct_frac"] = oc.correctFrac()
		if m["peak_rss_mb"], err = sp.peakRSSMB(); err != nil {
			return nil, err
		}
		if m["reference_agreement"], err = edgeAgreement(acc, o.workers); err != nil {
			return nil, err
		}
	} else if err := s.traced(acc, frames, planes[0]); err != nil {
		return nil, err
	}
	// A session frame never sent to /v1/process, so the probe misses the
	// response cache and carries the modeled headers.
	mf, err := modeledLive(sp, frames[0])
	if err != nil {
		return nil, err
	}
	mf.fill(m, o.trace)
	return oc, nil
}

func openSession(sp *serverProc) (string, error) {
	body, err := json.Marshal(lightator.SessionRequest{Kind: "process", Kernel: "edge"})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(sp.base+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sr lightator.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK || sr.ID == "" {
		return "", fmt.Errorf("open session: status %d", resp.StatusCode)
	}
	return sr.ID, nil
}

// traced is serve-session's per-layer run: a traced paced phase first
// (a fixed frame count from a fresh session, so its reuse fraction
// repeats exactly), untraced then traced unpaced phases, then probes.
func (s *sessionLoad) traced(acc *lightator.Accelerator, frames []*lightator.Image, plane *lightator.Image) error {
	m := s.oc.metrics
	tr := newTracer()
	s.oc.spans = tr
	c0, err := s.sp.counters()
	if err != nil {
		return err
	}
	a0, g0, err := s.sp.runtimeCounters()
	if err != nil {
		return err
	}
	paced, err := s.stream(true, int(cameraRate*(s.o.run/4).Seconds()), s.o.run/4, tr, "paced")
	if err != nil {
		return err
	}
	a1, g1, err := s.sp.runtimeCounters()
	if err != nil {
		return err
	}
	fpsU, _, err := s.unpaced(s.o.run/4, nil, "unpaced")
	if err != nil {
		return err
	}
	fpsT, res, err := s.unpaced(s.o.run/4, tr, "unpaced")
	if err != nil {
		return err
	}
	c1, err := s.sp.counters()
	if err != nil {
		return err
	}
	fillServerLayers(m, c0, c1)
	fillRuntimeLayers(m, a0, g0, a1, g1, paced.sent)
	m["session.blocks_reused_frac"] = float64(paced.reused) / float64(paced.total)
	m["loadgen.late_ms"] = quantile(paced.late, tailQuantile)
	m["trace.overhead_frac"] = 1 - fpsT/fpsU
	var gaps []float64
	for i := 1; i < len(res.arrivals); i++ {
		gaps = append(gaps, ms(res.arrivals[i].Sub(res.arrivals[i-1])))
	}
	m["session.frame_ms"] = median(gaps)

	decode := func(b []byte) (*lightator.Image, error) {
		var f lightator.SessionFrame
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, err
		}
		return lightator.DecodeImage(f.Scene)
	}
	encode := func(im *lightator.Image) ([]byte, error) {
		w := lightator.EncodeImage(im)
		return json.Marshal(lightator.SessionResult{Plane: &w})
	}
	if err := codecProbe(m, s.lines[:4], decode, encode, plane, tr); err != nil {
		return err
	}
	br := &batchRun{b: edgeSpec, o: s.o, acc: acc, scenes: frames, oc: s.oc}
	if err := br.probeLayers(s.o.run/4, tr); err != nil {
		return err
	}
	if err := mvmProbes(m, edgeSpec.fidelity); err != nil {
		return err
	}
	return nil
}
