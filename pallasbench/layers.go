package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"time"

	"pallas"
	"pallas/internal/cast"
	"pallas/internal/checkers"
	"pallas/internal/cparse"
	"pallas/internal/cpp"
	"pallas/internal/paths"
	"pallas/internal/spec"
)

// stages are the staged pipeline's layers in call order.
var stages = []string{"cpp", "cparse", "spec", "paths", "checkers"}

// facadePaths is the extraction configuration the facade uses by default
// (MaxPaths 512, two block visits, inline depth 2).
func facadePaths(workers int) paths.Config {
	return paths.Config{MaxPaths: maxPaths, MaxBlockVisits: 2, InlineDepth: 2, Workers: workers}
}

// layerCounts accumulates per-layer work across traced passes.
type layerCounts struct {
	srcBytes, mergedBytes             int64
	alloc                             map[string]uint64
	funcs, paths, truncated, warnings int
}

// stagedOut is what the staged pipeline produced for one unit.
type stagedOut struct {
	report []byte
	tu     *cast.TranslationUnit
	sp     *spec.Spec
	ctx    *checkers.Context
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// staged runs the facade's pipeline one public entry point at a time —
// the same calls AnalyzeSource makes, with its defaults — each inside a
// span of t under one root span for the unit. A nil t records nothing; a
// nil lc skips the allocation and work counts.
func staged(t *tracer, trace int, u unit, workers int, lc *layerCounts) (stagedOut, error) {
	var out stagedOut
	var merged string
	var err error
	step := func(name string, parent int, f func()) {
		if err != nil {
			return
		}
		var a0 uint64
		if lc != nil {
			a0 = heapAllocs()
		}
		t.do(name, trace, parent, func(int) { f() })
		if lc != nil {
			lc.alloc[name] += heapAllocs() - a0
		}
	}
	t.do("unit", trace, 0, func(root int) {
		step("cpp", root, func() { merged, err = cpp.New(nil).MergeText(u.name, u.src) })
		step("cparse", root, func() { out.tu, err = cparse.Parse(u.name, merged) })
		step("spec", root, func() {
			if out.sp, err = spec.Parse(u.spec); err != nil {
				return
			}
			var anno *spec.Spec
			if anno, err = spec.FromAnnotations(out.tu); anno != nil {
				out.sp.Merge(anno)
			}
		})
		step("paths", root, func() { out.ctx, err = checkers.NewContext(out.tu, out.sp, facadePaths(workers)) })
		var rep any
		step("checkers", root, func() { rep = checkers.Run(out.ctx) })
		if err == nil {
			out.report, err = json.Marshal(rep)
		}
	})
	if err != nil {
		return out, fmt.Errorf("staged %s: %w", u.name, err)
	}
	if lc != nil {
		lc.srcBytes += int64(len(u.src))
		lc.mergedBytes += int64(len(merged))
		for _, fp := range out.ctx.FuncPaths {
			lc.funcs++
			lc.paths += len(fp.Paths)
			if fp.Truncated {
				lc.truncated++
			}
		}
		var rep struct{ Warnings []json.RawMessage }
		if err := json.Unmarshal(out.report, &rep); err != nil {
			return out, err
		}
		lc.warnings += len(rep.Warnings)
	}
	return out, nil
}

// tracedRun carries one traced run's tracer and the next trace ID.
type tracedRun struct {
	c     config
	res   *result
	t     *tracer
	trace int
}

func (r *tracedRun) nextTrace() int { r.trace++; return r.trace }

// layers measures the per-layer split over units: traced and untraced
// passes of the staged pipeline alternate for half the run (the ratio of
// their medians is the tracing overhead), then one more pass times each
// checker alone, the facade's AnalyzeSource on the same unit (its report
// must be byte-identical to the staged one), and extraction serial against
// parallel. With withGo set, the untraced passes also give the go.*
// metrics.
func (r *tracedRun) layers(units []unit, workers int, withGo bool) error {
	res := r.res
	lc := layerCounts{alloc: map[string]uint64{}}
	var tracedMS, plainMS []float64
	var gd goStats
	plainUnits := 0
	firstSpan := len(r.t.spans)
	end := time.Now().Add(r.c.dur / 2)
	for len(tracedMS) == 0 || time.Now().Before(end) {
		t0 := time.Now()
		for _, u := range units {
			out, err := staged(r.t, r.nextTrace(), u, workers, &lc)
			if err != nil {
				return err
			}
			res.Attempted++
			if msg := u.want.check(out.report); msg != "" {
				res.fail("%s: %s", u.name, msg)
			}
		}
		tracedMS = append(tracedMS, ms(time.Since(t0)))
		s0 := readGoStats()
		t0 = time.Now()
		for _, u := range units {
			if _, err := staged(nil, 0, u, workers, nil); err != nil {
				return err
			}
		}
		plainMS = append(plainMS, ms(time.Since(t0)))
		gd = gd.plus(readGoStats().minus(s0))
		plainUnits += len(units)
	}
	passes := float64(len(tracedMS))
	self := selfTimes(r.t.spans[firstSpan:])
	n := len(tracedMS) * len(units)
	for _, st := range stages {
		res.set(st+".busy_ms", ms(self[st])/passes, "ms", n)
	}
	res.set("cpp.ns_per_byte", float64(self["cpp"].Nanoseconds())/float64(lc.srcBytes), "ns/B", n)
	res.set("cpp.alloc_kb", float64(lc.alloc["cpp"])/1024/passes, "KiB", n)
	res.set("cparse.mb_per_s", float64(lc.mergedBytes)/1e6/self["cparse"].Seconds(), "MB/s", n)
	res.set("cparse.alloc_kb", float64(lc.alloc["cparse"])/1024/passes, "KiB", n)
	res.set("paths.funcs", float64(lc.funcs)/passes, "count", n)
	res.set("paths.paths", float64(lc.paths)/passes, "count", n)
	res.set("paths.ns_per_path", float64(self["paths"].Nanoseconds())/float64(max(lc.paths, 1)), "ns", lc.paths)
	res.set("paths.alloc_kb", float64(lc.alloc["paths"])/1024/passes, "KiB", n)
	res.set("paths.truncated_funcs", float64(lc.truncated)/passes, "count", n)
	if r.c.workload == "deep-paths" && lc.truncated > 0 {
		res.fail("%d deep-paths extractions truncated", lc.truncated)
	}
	res.set("checkers.warnings", float64(lc.warnings)/passes, "count", n)
	res.set("trace.overhead_share", median(tracedMS)/median(plainMS)-1, "ratio", len(tracedMS))
	if withGo {
		res.setGoMetrics(gd, plainUnits)
	}
	return r.split(units, workers)
}

// split is the single pass behind the per-checker and parallel-efficiency
// metrics and the staged-versus-facade identity check.
func (r *tracedRun) split(units []unit, workers int) error {
	res := r.res
	facade := pallas.New(pallas.Config{AnalysisWorkers: workers})
	names := pallas.CheckerNames()
	firstSpan := len(r.t.spans)
	var serial, parallel time.Duration
	for _, u := range units {
		tr := r.nextTrace()
		out, err := staged(r.t, tr, u, workers, nil)
		if err != nil {
			return err
		}
		for _, name := range names {
			c := checkers.ByName(name)
			r.t.do("checkers."+name, tr, 0, func(int) { checkers.Run(out.ctx, c) })
		}
		var fres *pallas.Result
		r.t.do("pallas.AnalyzeSource", tr, 0, func(int) { fres, err = facade.AnalyzeSource(u.name, u.src, u.spec) })
		res.Attempted++
		if err != nil {
			res.fail("facade %s: %v", u.name, err)
			continue
		}
		b, err := json.Marshal(fres.Report)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, out.report) {
			res.fail("%s: staged report differs from AnalyzeSource", u.name)
		}
		for _, w := range []int{1, r.c.nproc} {
			t0 := time.Now()
			if _, err := checkers.NewContext(out.tu, out.sp, facadePaths(w)); err != nil {
				return err
			}
			if w == 1 {
				serial += time.Since(t0)
			} else {
				parallel += time.Since(t0)
			}
		}
	}
	self := selfTimes(r.t.spans[firstSpan:])
	for _, name := range names {
		res.set("checkers."+name+".busy_ms", ms(self["checkers."+name]), "ms", len(units))
	}
	res.set("paths.parallel_efficiency", serial.Seconds()/(float64(r.c.nproc)*parallel.Seconds()), "ratio", len(units))
	return nil
}

// glueReps is how often glueOnce times each side on each unit, and
// glueTries how many such measurements measureGlue makes before it gives up.
const (
	glueReps  = 50
	glueTries = 3
)

// measureGlue measures pallas.glue_ms_per_unit: the time AnalyzeSource
// adds over the staged pipeline's calls, both untraced, serial and ending in
// the report's JSON. The facade does strictly more work, so a measurement
// that is not positive is invalid and is made again; after glueTries invalid
// measurements the run fails.
//
// The glue is under a microsecond per unit, so it is measured on the
// corpus-scan units in every traced run: on deep-paths' units, which take
// tens of milliseconds, it is below the run-to-run noise. A traced run
// measures it before anything else, while the heap is still small.
func measureGlue(res *result, seed uint64) error {
	units, err := corpusScanUnits(seed)
	if err != nil {
		return err
	}
	facade := pallas.New(pallas.Config{AnalysisWorkers: 1})
	var tries []float64
	for len(tries) < glueTries {
		g, err := glueOnce(facade, units)
		if err != nil {
			return err
		}
		if g > 0 {
			res.set("pallas.glue_ms_per_unit", g, "ms", len(units))
			return nil
		}
		tries = append(tries, g)
	}
	res.fail("facade glue measured %v ms per unit; not a valid measurement", tries)
	return nil
}

// glueOnce runs both sides glueReps times on each unit, alternating which
// goes first, and keeps each side's fastest time, which outside load and
// timer noise can only lengthen. It returns the median over units of the
// facade's fastest time minus the staged one's; a median, because the few
// large units' timing noise would swamp a mean.
func glueOnce(facade *pallas.Analyzer, units []unit) (float64, error) {
	var glue []float64
	for _, u := range units {
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64} // [staged, facade]
		for rep := 0; rep < 2*glueReps; rep++ {
			side := rep % 2
			if (rep/2)%2 == 1 {
				side = 1 - side
			}
			t0 := time.Now()
			var err error
			if side == 0 {
				_, err = staged(nil, 0, u, 1, nil)
			} else {
				var fres *pallas.Result
				if fres, err = facade.AnalyzeSource(u.name, u.src, u.spec); err == nil {
					_, err = json.Marshal(fres.Report)
				}
			}
			d := time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("glue %s: %w", u.name, err)
			}
			best[side] = min(best[side], d)
		}
		glue = append(glue, ms(best[1]-best[0]))
	}
	return median(glue), nil
}

// replayStep is one re-check in the incr/cold comparison: a unit's content
// sent again unchanged, or after an edit.
type replayStep struct {
	unit int
	src  string
	edit bool
}

// replay analyses a re-check sequence in process twice per step — with the
// function memo (primed with every unit's first content, as the server's
// is) and without it — and reports both latencies per class, the memo's
// gain, and its hit ratios from IncrStats deltas. The memo's report must
// equal the cold one byte for byte.
func (r *tracedRun) replay(units []unit, steps []replayStep, workers int) error {
	res := r.res
	memo := pallas.New(pallas.Config{AnalysisWorkers: workers, Incremental: &pallas.IncrementalOptions{}})
	cold := pallas.New(pallas.Config{AnalysisWorkers: workers})
	for _, u := range units {
		if _, err := memo.AnalyzeSource(u.name, u.src, u.spec); err != nil {
			return err
		}
	}
	s0, _ := memo.IncrStats()
	var lat [2][2][]float64 // [memo, cold][replay, edit]
	for _, st := range steps {
		u := units[st.unit]
		tr := r.nextTrace()
		var reps [2][]byte
		for i, a := range []*pallas.Analyzer{memo, cold} {
			var rr *pallas.Result
			var err error
			t0 := time.Now()
			r.t.do([]string{"incr.AnalyzeSource", "cold.AnalyzeSource"}[i], tr, 0, func(int) {
				rr, err = a.AnalyzeSource(u.name, st.src, u.spec)
			})
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay %s: %w", u.name, err)
			}
			if reps[i], err = json.Marshal(rr.Report); err != nil {
				return err
			}
			k := 0
			if st.edit {
				k = 1
			}
			lat[i][k] = append(lat[i][k], ms(d))
		}
		res.Attempted++
		if !bytes.Equal(reps[0], reps[1]) {
			res.fail("%s: memo report differs from a cold analysis", u.name)
		} else if msg := u.want.check(reps[1]); msg != "" {
			res.fail("%s: %s", u.name, msg)
		}
	}
	s1, _ := memo.IncrStats()
	res.set("incr.unit_hit_ratio", ratio(s1.UnitHits-s0.UnitHits, s1.UnitMisses-s0.UnitMisses), "ratio", len(steps))
	res.set("incr.func_hit_ratio", ratio(s1.FuncHits-s0.FuncHits, s1.FuncMisses-s0.FuncMisses), "ratio",
		int(s1.FuncHits-s0.FuncHits+s1.FuncMisses-s0.FuncMisses))
	for k, class := range []string{"replay", "edit"} {
		var p50 [2]float64
		for i, side := range []string{"incr", "cold"} {
			name := side + "." + class + "_ms_p50"
			if err := res.setPercentile(name, lat[i][k], 0.5); err != nil {
				return err
			}
			p50[i] = res.Metrics[name].Value
		}
		res.set("incr."+class+"_gain_ratio", p50[1]/p50[0], "ratio", len(lat[0][k]))
	}
	return nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// batchReplaySteps re-checks every unit enough times for the percentile
// rule: each round sends every unit unchanged, then with a fresh edit.
func batchReplaySteps(units []unit, r *rand.Rand) []replayStep {
	var steps []replayStep
	cur := make([]string, len(units))
	for i, u := range units {
		cur[i] = u.src
	}
	rounds := int(math.Ceil(24 / float64(len(units))))
	for round := 0; round < rounds; round++ {
		for i, u := range units {
			steps = append(steps, replayStep{unit: i, src: cur[i]})
			cur[i] = edit(cur[i], u.funcs[r.IntN(len(u.funcs))], 1+r.IntN(1<<20))
			steps = append(steps, replayStep{unit: i, src: cur[i], edit: true})
		}
	}
	return steps
}

// serveMetrics records the server-side metrics of one driven schedule:
// round trips and lateness as the load generator saw them, and the cache
// and shed counters from two /metrics scrapes around it.
func (r *tracedRun) serveMetrics(s *serveRun, outs []outcome, before, after map[string]float64, start time.Time) error {
	res := r.res
	var hitRTT, rtt, late []float64
	for i, o := range outs {
		r.t.add("serve.request", r.nextTrace(), start.Add(o.start), start.Add(o.end))
		rtt = append(rtt, ms(o.rtt))
		late = append(late, ms(o.late))
		if !s.reqs[i].edit {
			hitRTT = append(hitRTT, ms(o.rtt))
		}
	}
	d := func(name string) float64 { return after[name] - before[name] }
	res.set("rcache.hit_ratio", ratio(int64(d("pallas_cache_hits_total")), int64(d("pallas_cache_misses_total"))), "ratio",
		int(d("pallas_cache_hits_total")+d("pallas_cache_misses_total")))
	shed := d("pallas_shed_queue_full_total") + d("pallas_shed_deadline_total") +
		d("pallas_shed_rate_limited_total") + d("pallas_shed_draining_total")
	res.set("server.shed", shed, "count", len(outs))
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"server.hit_rtt_p50_ms", hitRTT, 0.5},
		{"server.p90_ms", rtt, 0.9},
		{"server.p99_ms", rtt, 0.99},
		{"loadgen.late_p99_ms", late, 0.99},
	} {
		if err := res.setPercentile(p.name, p.xs, p.q); err != nil {
			return err
		}
	}
	return nil
}

// drive runs s's schedule with /metrics scrapes around it, checks every
// answer, and returns how many requests it sent and the runtime counters'
// change while they ran.
func (r *tracedRun) drive(s *serveRun) (int, goStats, error) {
	before, err := scrape(s.client, s.base)
	if err != nil {
		return 0, goStats{}, err
	}
	g0 := readGoStats()
	start := time.Now()
	outs, digests := s.drive(r.c.nproc)
	gd := readGoStats().minus(g0)
	after, err := scrape(s.client, s.base)
	if err != nil {
		return 0, gd, err
	}
	if _, err := s.verify(r.res, outs, digests, r.c.nproc); err != nil {
		return 0, gd, err
	}
	return len(outs), gd, r.serveMetrics(s, outs, before, after, start)
}

// traceBatch is the traced run of a batch workload: the layer split over
// its units, the memo replay over re-checks of them, and a short
// cache-hit-only serve phase over them for the server-side metrics (the
// batch workloads themselves never touch a server).
func traceBatch(c config, w *batchWorkload, res *result) error {
	r := &tracedRun{c: c, res: res, t: newTracer()}
	workers := max(w.cfg.AnalysisWorkers, 1)
	if err := r.layers(w.units, workers, true); err != nil {
		return err
	}
	if err := r.replay(w.units, batchReplaySteps(w.units, rand.New(rand.NewPCG(c.seed, 5))), workers); err != nil {
		return err
	}
	s, err := startServe(c, w.units, probeRate, probeDur, false)
	if err != nil {
		return err
	}
	defer s.close()
	if _, _, err := r.drive(s); err != nil {
		return err
	}
	return r.finish()
}

// The batch workloads' serve phase: cache hits only, long enough for ten
// samples beyond the 99th percentile.
const (
	probeRate = 500
	probeDur  = 2500 * time.Millisecond
)

// replayPrefix is how many edit-serve arrivals the in-process memo replay
// and the layer passes cover.
const replayPrefix = 600

// traceServe is the traced run of edit-serve: the open loop again with a
// span per request, then the layer split over the contents the schedule
// sends first, and the in-process memo replay of its first arrivals.
func traceServe(c config, s *serveRun, res *result) error {
	r := &tracedRun{c: c, res: res, t: newTracer()}
	sent, gd, err := r.drive(s)
	if err != nil {
		return err
	}
	res.setGoMetrics(gd, sent)
	var contents []unit
	for _, v := range s.vers[:min(len(s.vers), replayPrefix/4)] {
		u := s.units[v.unit]
		u.src = v.src
		contents = append(contents, u)
	}
	if err := r.layers(contents, 1, false); err != nil {
		return err
	}
	var steps []replayStep
	for _, q := range s.reqs[:min(len(s.reqs), replayPrefix)] {
		steps = append(steps, replayStep{unit: q.unit, src: s.vers[q.version].src, edit: q.edit})
	}
	if err := r.replay(s.units, steps, 1); err != nil {
		return err
	}
	return r.finish()
}

// finish writes the spans out.
func (r *tracedRun) finish() error {
	path, err := r.t.write(r.c)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(r.t.spans), path)
	return nil
}
