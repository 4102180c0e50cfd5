// Command pallasbench is the repository's benchmark. It runs one workload
// against the analyzer and prints every metric by name and unit, then, as
// its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured untraced);
// with -trace 1 they are the per-layer ones, from a run that times each
// layer's public entry points from outside. See README.md.
//
// Run it from the repository root:
//
//	bash pallasbench/run.sh --workload corpus-scan --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is the benchmark's verdict line plus the sample count behind each
// metric, which only the human-readable table shows.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// setPercentile records the p-quantile of xs, refusing to report one with
// fewer than ten samples beyond it.
func (r *result) setPercentile(name string, xs []float64, p float64) error {
	v, ok := percentile(xs, p)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than ten beyond the %g quantile; run longer", name, len(xs), p)
	}
	r.set(name, v, "ms", len(xs))
	return nil
}

// percentile returns the p-quantile (0<p<1) of xs by nearest rank, and
// whether at least ten samples lie beyond it — the rule for reporting it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= 10
}

// median returns the middle of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fail counts one failed operation and says why on stderr.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// print writes the human-readable table, each metric with its sample
// count, then the verdict line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	nproc    int
}

func main() {
	var c config
	var seconds float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "corpus-scan, deep-paths or edit-serve")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	c.dur = time.Duration(seconds * float64(time.Second))
	c.trace = trace == 1
	c.nproc = runtime.NumCPU()
	if c.dur <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "pallasbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(c)
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pallasbench:", err)
		os.Exit(1)
	}
}

func run(c config) (*result, error) {
	var runWorkload func(config, *result) (*result, error)
	switch c.workload {
	case "corpus-scan", "deep-paths":
		runWorkload = runBatch
	case "edit-serve":
		runWorkload = runServe
	default:
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	res := newResult()
	if c.trace {
		if err := measureGlue(res, c.seed); err != nil {
			return nil, err
		}
	}
	return runWorkload(c, res)
}

// A run sets up at least minSetups times and until setupBudget has passed
// (at most maxSetups times); setup_s is the median, and the last set-up is
// the one measured. Cheap set-ups thus get more samples.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// timedSetup runs setup repeatedly, closing all but the last, and records
// the median time as setup_s (an end-to-end metric, so only in untraced
// runs). Each set-up starts from a collected heap, so garbage from the one
// before does not bill it.
func timedSetup[T any](c config, res *result, setup func() (T, error), close func(T)) (T, error) {
	var v T
	var times []float64
	began := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(began) < setupBudget) {
		if len(times) > 0 {
			close(v)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !c.trace {
		res.set("setup_s", median(times), "s", len(times))
	}
	return v, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found: %v", sc.Err())
}

// goStats samples the runtime counters behind the go.* metrics. busyCPU is
// the runtime's total CPU time less its idle time. The runtime refreshes
// its CPU classes only at GC cycles, so a change in gcCPU or busyCPU covers
// the GC cycles that ended in a window, not the window exactly.
type goStats struct{ gcCPU, busyCPU, allocBytes float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return goStats{s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64(), float64(s[3].Value.Uint64())}
}

func (g goStats) minus(o goStats) goStats {
	return goStats{g.gcCPU - o.gcCPU, g.busyCPU - o.busyCPU, g.allocBytes - o.allocBytes}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{g.gcCPU + o.gcCPU, g.busyCPU + o.busyCPU, g.allocBytes + o.allocBytes}
}

// setGoMetrics records go.gc_cpu_share (GC's share of the CPU time the
// process spent busy) and go.alloc_kb_per_unit from the runtime counters'
// change d over work on the given number of units.
func (r *result) setGoMetrics(d goStats, units int) {
	share := 0.0
	if d.busyCPU > 0 {
		share = d.gcCPU / d.busyCPU
	}
	r.set("go.gc_cpu_share", share, "ratio", units)
	r.set("go.alloc_kb_per_unit", d.allocBytes/1024/float64(max(units, 1)), "KiB", units)
}
