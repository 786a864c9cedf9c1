package main

import (
	"math"
	"math/rand"

	"lightator"
)

// structuredScene renders an n×n RGB scene: a smooth gradient background,
// shaded ellipses and rectangles, a sinusoidal texture patch and mild
// pixel noise. The sensor's CRC readout branches on pixel level and
// session delta reuse on what changes between frames, so scenes are
// structured content rather than i.i.d. uniform noise.
func structuredScene(rng *rand.Rand, n int) *lightator.Image {
	im := lightator.NewImage(n, n, 3)
	fn := float64(n)
	var tint [3]float64
	for c := range tint {
		tint[c] = 0.15 + 0.2*rng.Float64()
	}
	gx, gy := 0.3*rng.Float64(), 0.3*rng.Float64()
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			for c := 0; c < 3; c++ {
				im.Pix[(y*n+x)*3+c] = tint[c] + gx*float64(x)/fn + gy*float64(y)/fn
			}
		}
	}
	for s := 0; s < 3+rng.Intn(3); s++ {
		cy, cx := rng.Float64()*fn, rng.Float64()*fn
		ry, rx := fn*(0.05+0.2*rng.Float64()), fn*(0.05+0.2*rng.Float64())
		rect := rng.Intn(2) == 0
		var col [3]float64
		for c := range col {
			col[c] = rng.Float64()
		}
		for y := max(0, int(cy-ry)); y < min(n, int(cy+ry)+1); y++ {
			for x := max(0, int(cx-rx)); x < min(n, int(cx+rx)+1); x++ {
				dy, dx := (float64(y)-cy)/ry, (float64(x)-cx)/rx
				d := dy*dy + dx*dx
				if !rect && d > 1 {
					continue
				}
				shade := 1 - 0.4*math.Min(d, 1)
				for c := 0; c < 3; c++ {
					im.Pix[(y*n+x)*3+c] = col[c] * shade
				}
			}
		}
	}
	ty, tx, tr := rng.Intn(n/2), rng.Intn(n/2), n/4
	freq := 0.3 + rng.Float64()
	for y := ty; y < ty+tr; y++ {
		for x := tx; x < tx+tr; x++ {
			v := 0.5 + 0.4*math.Sin(freq*float64(x))*math.Cos(freq*float64(y))
			for c := 0; c < 3; c++ {
				im.Pix[(y*n+x)*3+c] = v
			}
		}
	}
	for i := range im.Pix {
		im.Pix[i] = math.Min(1, math.Max(0, im.Pix[i]+0.02*rng.NormFloat64()))
	}
	return im
}

// structuredScenes returns count scenes drawn from one seeded stream.
func structuredScenes(seed int64, count, n int) []*lightator.Image {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*lightator.Image, count)
	for i := range out {
		out[i] = structuredScene(rng, n)
	}
	return out
}
