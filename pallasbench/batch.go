package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"pallas"
)

// batchWorkload is a batch workload's inputs and analyzer settings.
type batchWorkload struct {
	units []unit
	cfg   pallas.Config
	opts  pallas.BatchOptions
}

// newBatchWorkload generates a batch workload's inputs. corpus-scan spreads
// many small units over nproc batch workers with serial units; deep-paths
// analyses a few branch-heavy units one at a time, each fanned out over
// nproc analysis workers.
func newBatchWorkload(c config) (*batchWorkload, error) {
	switch c.workload {
	case "corpus-scan":
		us, err := corpusScanUnits(c.seed)
		return &batchWorkload{units: us, cfg: pallas.Config{AnalysisWorkers: 1},
			opts: pallas.BatchOptions{Workers: c.nproc}}, err
	case "deep-paths":
		var us []unit
		for _, du := range deepPathsUnits(c.seed) {
			us = append(us, du.unit)
		}
		return &batchWorkload{units: us, cfg: pallas.Config{AnalysisWorkers: c.nproc},
			opts: pallas.BatchOptions{Workers: 1}}, nil
	}
	return nil, fmt.Errorf("not a batch workload: %q", c.workload)
}

func toPallasUnits(us []unit) []pallas.Unit {
	out := make([]pallas.Unit, len(us))
	for i, u := range us {
		out[i] = pallas.Unit{Name: u.name, Source: u.src, Spec: u.spec}
	}
	return out
}

// passOrder returns the units in a fresh seeded order. With several batch
// workers a pass ends when the last worker does, so which units come last
// matters; drawing a new order per pass keeps that from fixing one seed's
// timing.
func passOrder(units []unit, r *rand.Rand) []unit {
	out := append([]unit(nil), units...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// verifyBatch checks every unit's result against its oracle, counting each
// unit as one attempted operation.
func verifyBatch(res *result, set []unit, out []pallas.UnitResult) {
	for i, ur := range out {
		res.Attempted++
		if ur.Err != nil {
			res.fail("%s: %v", set[i].name, ur.Err)
			continue
		}
		b, err := json.Marshal(ur.Result.Report)
		if err != nil {
			res.fail("%s: %v", set[i].name, err)
			continue
		}
		if msg := set[i].want.check(b); msg != "" {
			res.fail("%s: %s", set[i].name, msg)
		}
	}
}

// runBatch measures corpus-scan or deep-paths: passes over the workload's
// units through AnalyzeBatch, each in a fresh seeded order. Nothing caches,
// so every pass is analysed cold.
func runBatch(c config, res *result) (*result, error) {
	w, err := timedSetup(c, res, func() (*batchWorkload, error) {
		w, err := newBatchWorkload(c)
		if err != nil {
			return nil, err
		}
		// Warm-up pass: lazy initialisation and heap growth are set-up.
		_, _, err = pallas.New(w.cfg).AnalyzeBatch(toPallasUnits(w.units), w.opts)
		return w, err
	}, func(*batchWorkload) {})
	if err != nil {
		return nil, err
	}
	if c.trace {
		return res, traceBatch(c, w, res)
	}
	a := pallas.New(w.cfg)
	r := rand.New(rand.NewPCG(c.seed, 4))
	var passMS []float64
	analysed := 0
	end := time.Now().Add(c.dur)
	for time.Now().Before(end) || len(passMS) < minPasses {
		set := passOrder(w.units, r)
		in := toPallasUnits(set)
		t0 := time.Now()
		out, _, err := a.AnalyzeBatch(in, w.opts)
		dt := time.Since(t0)
		if err != nil {
			return nil, err
		}
		analysed += len(in)
		passMS = append(passMS, ms(dt))
		verifyBatch(res, set, out)
	}
	// A batch workload has one kind of pass, so its median pass time is
	// reported under both latency names (every workload reports every
	// end-to-end metric).
	for _, name := range []string{"hit_p50_ms", "edit_p50_ms"} {
		if err := res.setPercentile(name, passMS, 0.5); err != nil {
			return nil, err
		}
	}
	// Throughput at the median pass: a burst of outside load during a few
	// passes moves it less than a mean would.
	perPass := float64(len(w.units)) / res.Metrics["hit_p50_ms"].Value * 1000
	res.set("units_per_s", perPass, "1/s", analysed)
	res.set("slo_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio", int(res.Attempted))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MiB", 1)
	return res, nil
}

// minPasses keeps a short or slow run measuring until the median pass has
// ten samples beyond it, with some to spare.
const minPasses = 22

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
