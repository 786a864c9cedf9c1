package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"lightator"
)

// modeledFrame is the paper's component model priced for one frame:
// deterministic, never a wall-clock measurement.
type modeledFrame struct {
	kfpsPerW  float64 // modeled_kfps_per_w of the pipeline series
	joules    float64 // X-Lightator-Energy-J of one request
	analogOps float64 // mr_coeff_holds of X-Lightator-Ops: one analog multiply each
}

// parseModeled reads the per-request modeled energy and analog op count
// from a compute response's headers.
func parseModeled(h http.Header) (joules, ops float64, err error) {
	joules, err = strconv.ParseFloat(h.Get("X-Lightator-Energy-J"), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("X-Lightator-Energy-J: %w", err)
	}
	for _, kv := range strings.Fields(h.Get("X-Lightator-Ops")) {
		if v, ok := strings.CutPrefix(kv, "mr_coeff_holds="); ok {
			ops, err = strconv.ParseFloat(v, 64)
			return joules, ops, err
		}
	}
	return 0, 0, fmt.Errorf("no mr_coeff_holds in X-Lightator-Ops %q", h.Get("X-Lightator-Ops"))
}

// modeledInProcess serves one request of the workload's shape through an
// in-process server over acc (the HTTP API without a listener) and reads
// the modeled metrics it reports. series names the pipeline's energy
// gauge, e.g. "process:edge" or "infer:tiny-mlp".
func modeledInProcess(acc *lightator.Accelerator, path, series string, body any) (modeledFrame, error) {
	srv, err := acc.NewServer(lightator.ServeOptions{AgreementFrames: -1, CacheEntries: -1, TraceEntries: -1})
	if err != nil {
		return modeledFrame{}, err
	}
	defer srv.Shutdown(context.Background())
	data, err := json.Marshal(body)
	if err != nil {
		return modeledFrame{}, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		return modeledFrame{}, fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	var mf modeledFrame
	if mf.joules, mf.analogOps, err = parseModeled(rec.Header()); err != nil {
		return modeledFrame{}, err
	}
	g, ok := srv.Metrics().Energy[series]
	if !ok {
		return modeledFrame{}, fmt.Errorf("no energy gauge %q", series)
	}
	mf.kfpsPerW = g.ModeledKFPSPerW
	return mf, nil
}

func (mf modeledFrame) fill(m map[string]float64, trace bool) {
	if trace {
		m["energy.j_per_frame"] = mf.joules
		m["oc.analog_ops_per_frame"] = mf.analogOps
	} else {
		m["modeled_kfps_per_w"] = mf.kfpsPerW
	}
}

// reference_agreement is measured on a fixed evaluation set that does
// not depend on --seed: it compares program versions, not inputs.
const (
	evalSeed = 0x5eed
	// modelAgreementFrames is the ModelAgreement sweep (structured disk
	// scenes under Config.Seed) for models.
	modelAgreementFrames = 64
)

// edgeAgreement is reference_agreement for the served edge kernel: the
// share of samples of acc's output within edgeAgreementTol of the
// Ideal-fidelity output, over 16 evaluation scenes.
func edgeAgreement(acc *lightator.Accelerator, workers int) (float64, error) {
	scenes := structuredScenes(evalSeed, 16, edgeSpec.size)
	outs, err := edgeSpec.call(acc, scenes, workers)
	if err != nil {
		return 0, err
	}
	ideal, err := lightator.New(edgeSpec.config(lightator.Ideal))
	if err != nil {
		return 0, err
	}
	idealOuts, err := edgeSpec.call(ideal, scenes, workers)
	if err != nil {
		return 0, err
	}
	return planeAgreement(outs, idealOuts), nil
}

// edgeAgreementTol is the tolerance of reference_agreement for kernels:
// a Physical output sample agrees with the Ideal-fidelity output when
// they differ by at most this share of the Ideal plane's peak magnitude.
const edgeAgreementTol = 0.05

// planeAgreement is the share of samples of got within edgeAgreementTol
// of ideal, over all planes.
func planeAgreement(got, ideal [][]float64) float64 {
	var in, total int
	for i := range ideal {
		peak := 0.0
		for _, v := range ideal[i] {
			peak = math.Max(peak, math.Abs(v))
		}
		for j, v := range ideal[i] {
			if math.Abs(got[i][j]-v) <= edgeAgreementTol*peak {
				in++
			}
			total++
		}
	}
	return float64(in) / float64(total)
}
