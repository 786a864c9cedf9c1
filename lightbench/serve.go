package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lightator"
)

// serverProc is a lightator-serve child process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs lightator-serve and returns once GET /readyz answers
// 200, with the time from exec to ready: the program's own construction
// and warm-up, and nothing the benchmark does.
func startServer(o options, args ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(o.outDir, "serve-"+o.workload+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(o.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even when a panic skips stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start lightator-serve: %w", err)
	}
	go func() {
		sp.waitErr = cmd.Wait()
		logf.Close()
		close(sp.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-sp.exited:
			return nil, 0, fmt.Errorf("lightator-serve exited before ready: %v (log in %s)", sp.waitErr, logPath)
		default:
		}
		if resp, err := client.Get(sp.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, time.Since(start), nil
			}
		}
		if time.Since(start) > 90*time.Second {
			sp.stop()
			return nil, 0, fmt.Errorf("lightator-serve not ready after 90s (log in %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (graceful drain) and waits for the process to exit,
// killing it if the drain outlasts 30 s.
func (sp *serverProc) stop() {
	// Signalling a process that already exited fails; exited is closed
	// either way.
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.exited:
	case <-time.After(30 * time.Second):
		sp.cmd.Process.Kill()
		<-sp.exited
	}
}

func (sp *serverProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(sp.cmd.Process.Pid))
}

func (sp *serverProc) getJSON(path string, v any) error {
	resp, err := http.Get(sp.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverCounters are the /metrics counters the per-layer metrics use.
type serverCounters struct {
	flushes, deadlineFlushes, batchedFrames float64
	requests, rejected, hits, misses        float64
}

func (sp *serverProc) counters() (serverCounters, error) {
	var snap lightator.ServerMetrics
	if err := sp.getJSON("/metrics?format=json", &snap); err != nil {
		return serverCounters{}, err
	}
	b := snap.Batcher
	c := serverCounters{
		flushes:         float64(b.SizeFlushes + b.DeadlineFlushes + b.DrainFlushes),
		deadlineFlushes: float64(b.DeadlineFlushes),
		batchedFrames:   float64(b.BatchedFrames),
	}
	for _, ep := range snap.Endpoints {
		c.requests += float64(ep.Requests)
		c.rejected += float64(ep.Rejected)
		c.hits += float64(ep.CacheHits)
		c.misses += float64(ep.CacheMisses)
	}
	return c, nil
}

// fillServerLayers sets the server.* batching, refusal and cache ratios
// from two /metrics snapshots taken around the traced phases.
func fillServerLayers(m map[string]float64, a, b serverCounters) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["server.batch_size_mean"] = ratio(b.batchedFrames-a.batchedFrames, b.flushes-a.flushes)
	m["server.deadline_flush_frac"] = ratio(b.deadlineFlushes-a.deadlineFlushes, b.flushes-a.flushes)
	m["server.rejected_frac"] = ratio(b.rejected-a.rejected, b.requests-a.requests)
	m["server.cache_hit_frac"] = ratio(b.hits-a.hits, b.hits-a.hits+b.misses-a.misses)
}

// runtimeCounters reads the server's cumulative allocation and GC counts
// from the MemStats footer of GET /debug/pprof/heap?debug=1 (served with
// -debug).
func (sp *serverProc) runtimeCounters() (totalAlloc, numGC float64, err error) {
	resp, err := http.Get(sp.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, errors.New("heap profile has no TotalAlloc/NumGC footer")
	}
	return totalAlloc, numGC, nil
}

// fillRuntimeLayers sets runtime.* from two server runtime readings
// around a phase that completed frames requests.
func fillRuntimeLayers(m map[string]float64, alloc0, gc0, alloc1, gc1 float64, frames int) {
	m["runtime.alloc_mb_per_frame"] = (alloc1 - alloc0) / (1 << 20) / float64(frames)
	m["runtime.gc_per_100_frames"] = (gc1 - gc0) * 100 / float64(frames)
}

// setupServers starts the server five times and keeps the last one
// running; setup_s is the median start-to-ready time.
func setupServers(o options, args ...string) (*serverProc, float64, error) {
	reps := 5
	if o.trace {
		reps = 1
	}
	var times []float64
	var sp *serverProc
	for i := 0; i < reps; i++ {
		if sp != nil {
			sp.stop()
		}
		var d time.Duration
		var err error
		if sp, d, err = startServer(o, args...); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return sp, median(times), nil
}

// serverArgs is the served configuration: the paper-default accelerator
// (Physical, [4:4]) at sceneSize with nproc pipeline workers; traced runs
// add the debug mux for runtime counters.
func serverArgs(o options) []string {
	size := strconv.Itoa(sceneSize)
	args := []string{"-rows", size, "-cols", size, "-workers", strconv.Itoa(o.workers)}
	if o.trace {
		args = append(args, "-debug")
	}
	return args
}

// newConnClient is one generator connection: a transport holding at most
// one keep-alive connection, so nproc workers open at most nproc.
func newConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// codecProbe times the facade's wire codec on served bodies, in the
// generator process: decode is json.Unmarshal + DecodeImage of the
// request, encode is EncodeImage + json.Marshal of the response.
func codecProbe(m map[string]float64, bodies [][]byte, decode func([]byte) (*lightator.Image, error), encode func(*lightator.Image) ([]byte, error), out *lightator.Image, tr *tracer) error {
	var dec, enc, alloc []float64
	for rep := 0; rep < 3; rep++ {
		for i, body := range bodies {
			var m0, m1 memCounter
			m0.read()
			start := time.Now()
			if _, err := decode(body); err != nil {
				return fmt.Errorf("decode probe: %w", err)
			}
			mid := time.Now()
			m1.read()
			if _, err := encode(out); err != nil {
				return fmt.Errorf("encode probe: %w", err)
			}
			end := time.Now()
			tr.add("codec.decode", -1, int64(i), start, mid)
			tr.add("codec.encode", -1, int64(i), mid, end)
			dec = append(dec, ms(mid.Sub(start)))
			enc = append(enc, ms(end.Sub(mid)))
			alloc = append(alloc, float64(m1.totalAlloc-m0.totalAlloc)/(1<<20))
		}
	}
	m["server.decode_ms"] = median(dec)
	m["server.encode_ms"] = median(enc)
	m["server.decode_alloc_mb"] = median(alloc)
	return nil
}
