package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/feas"
	"pallas/internal/journal"
	"pallas/internal/metrics"
	"pallas/internal/server"
)

// cmdWorker runs one cluster worker: the serve engine bound to an explicit
// listener (usually an ephemeral port) that announces its address on stderr
// as "pallas: worker listening on ADDR" so the supervisor can find it. The
// cluster dispatch endpoint (/v1/cluster/unit) shares the worker's result
// cache, admission control and gate with plain serve traffic.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks an ephemeral port, announced on stderr)")
	cacheBytes := fs.Int64("cache-bytes", 0, "memory result-cache budget in bytes (0 = default)")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory (shared across the cluster)")
	incrDir := fs.String("incr-dir", "", "persistent function-level memo directory (shared with `check -incr-dir`)")
	incrBytes := fs.Int64("incr-bytes", 0, "function memo byte budget, memory and disk (0 = default)")
	workers := fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
	analysisWorkers := fs.Int("analysis-workers", 0, "goroutines per analysis (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
	minWorkers := fs.Int("min-workers", 0, "adaptive concurrency floor (0 = 1)")
	maxQueue := fs.Int("max-queue", 0, "admission queue bound (0 = 256, negative = no queueing)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = none)")
	keepGoing := fs.Bool("keep-going", false, "degrade instead of failing on malformed input")
	checker := fs.String("checker", "", "run only the named checker")
	precision := fs.String("precision", "", "feasibility tier: fast (default), balanced, strict (matches `check -precision`)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
	cacheReplicas := fs.Int("cache-replicas", 0, "shared-cache-tier replication factor (0 = 2)")
	cacheStats := fs.Bool("cache-stats", false, "print unit-cache, function-memo and peer-tier summaries to stderr at exit")
	var cachePeers []string
	fs.Func("cache-peers", "peer cache endpoint host:port forming a static shared cache tier (repeatable; in cluster mode the coordinator pushes the map instead)",
		func(addr string) error {
			cachePeers = append(cachePeers, addr)
			return nil
		})
	var includeDirs []string
	fs.Func("include-dir", "serve #include files from this directory (repeatable)",
		func(dir string) error {
			includeDirs = append(includeDirs, dir)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("worker: unexpected arguments %v", fs.Args())
	}
	if _, err := feas.ParseTier(*precision); err != nil {
		return fmt.Errorf("worker: %w", err)
	}

	acfg := pallas.Config{
		Deadline:        *timeout,
		KeepGoing:       *keepGoing,
		IncludeDirs:     includeDirs,
		AnalysisWorkers: *analysisWorkers,
		Precision:       *precision,
	}
	if *checker != "" {
		acfg.Checkers = []string{*checker}
	}
	if *incrDir != "" || *incrBytes > 0 {
		acfg.Incremental = &pallas.IncrementalOptions{Dir: *incrDir, MaxBytes: *incrBytes}
	}
	srv, err := server.New(server.Config{
		Analyzer:      acfg,
		Workers:       *workers,
		MinWorkers:    *minWorkers,
		MaxQueue:      *maxQueue,
		CacheBytes:    *cacheBytes,
		CacheDir:      *cacheDir,
		CachePeers:    cachePeers,
		CacheReplicas: *cacheReplicas,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	srv.SetAdvertiseAddr(bound)
	hs := &http.Server{Handler: srv.Handler()}

	// Drain on SIGTERM/SIGINT, as serve does; SIGKILL (the chaos harness)
	// of course skips all of this — that is the point of the crash tests.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	drained := make(chan error, 1)
	go func() {
		<-sigs
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drained <- hs.Shutdown(ctx)
	}()

	// The supervisor parses this exact line for the ephemeral port.
	fmt.Fprintln(os.Stderr, cluster.ListenPrefix+bound)
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("worker: drain incomplete: %w", err)
	}
	st := srv.Cache().Stats()
	fmt.Fprintf(os.Stderr, "pallas: worker: drained cleanly (%d analyses, %d cache hits)\n",
		st.Computes, st.Hits)
	if *cacheStats {
		printServerCacheStats(os.Stderr, srv)
	}
	srv.Close()
	return nil
}

// cmdCluster distributes `check` across worker processes: units are sharded
// by content hash, dispatched with work stealing, requeued when workers die,
// and merged in input order so stdout and -pathdb output are byte-identical
// to a single-process `check` at any worker count and under any crash
// schedule. -journal makes the coordinator itself crash-recoverable: a
// killed coordinator rerun with -resume replays finished units from the
// journal instead of re-analyzing them.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec file with semantic directives")
	checker := fs.String("checker", "", "run only the named checker")
	asJSON := fs.Bool("json", false, "emit JSON")
	htmlOut := fs.String("html", "", "additionally write an HTML report to this file")
	precision := fs.String("precision", "", "feasibility tier on workers: fast (default), balanced, strict (matches `check -precision`)")
	timeout := fs.Duration("timeout", 0, "per-file analysis deadline on workers (0 = none)")
	keepGoing := fs.Bool("keep-going", false, "keep analyzing past malformed input, reporting per-file diagnostics")
	workers := fs.Int("workers", 0, "concurrent analyses inside each worker process (0 = GOMAXPROCS)")
	analysisWorkers := fs.Int("analysis-workers", 0, "goroutines per file inside each worker (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
	journalPath := fs.String("journal", "", "checkpoint assignments and completions to this append-only journal (JSONL)")
	resume := fs.Bool("resume", false, "skip files whose content hash already has a terminal journal entry (requires -journal)")
	retries := fs.Int("retries", 0, "re-dispatches per unit after transient failures before quarantine (0 = 2)")
	groupCommit := fs.Bool("group-commit", false, "batch journal fsyncs (higher throughput, same durability)")
	cacheDir := fs.String("cache-dir", "", "persistent result cache shared by all workers")
	cacheBytes := fs.Int64("cache-bytes", 0, "per-worker memory result-cache budget in bytes (0 = default)")
	incrDir := fs.String("incr-dir", "", "persistent function-level memo shared by all workers (re-analyzes only edited functions and their transitive callers)")
	incrBytes := fs.Int64("incr-bytes", 0, "per-worker function memo byte budget (0 = default)")
	clusterCachePeers := fs.Bool("cache-peers", false, "enable the shared peer cache tier: workers replicate cache entries to each other under a coordinator-pushed, epoch-fenced peer map")
	clusterCacheReplicas := fs.Int("cache-replicas", 0, "shared-cache-tier replication factor (0 = 2)")
	clusterCacheStats := fs.Bool("cache-stats", false, "spawned workers print unit-cache, function-memo and peer-tier summaries on drain")
	clusterWorkers := fs.Int("cluster-workers", 3, "worker processes to spawn (ignored when -worker addresses are given)")
	inflight := fs.Int("inflight", 0, "units dispatched concurrently per worker (0 = 2)")
	heartbeat := fs.Duration("heartbeat", 0, "worker liveness probe interval (0 = 500ms)")
	heartbeatMisses := fs.Int("heartbeat-misses", 0, "consecutive missed probes before a worker is evicted (0 = 3)")
	requestTimeout := fs.Duration("request-timeout", 0, "end-to-end bound on one unit dispatch; a hung worker holds a unit at most this long (0 = 2m)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base delay before a requeued unit is re-dispatched, doubled per attempt with jitter (0 = 100ms)")
	hedgeAfter := fs.Duration("hedge-after", time.Second, "floor of the hedge threshold: a unit in flight past max(this, p95x3) is speculatively re-dispatched to the next healthy worker (<=0 disables hedging)")
	hedgeMax := fs.Int("hedge-max", 4, "maximum concurrently outstanding hedge dispatches (the speculative-work budget)")
	workerRestarts := fs.Int("worker-restarts", 2, "restarts per spawned worker after a crash (negative = never restart)")
	workerBinary := fs.String("worker-binary", "", "executable to spawn workers from (default: this binary)")
	statusAddr := fs.String("status-addr", "", "serve coordinator /healthz (?verbose=1 adds the per-worker table) and /metrics on this address")
	pathdb := fs.String("pathdb", "", "write the merged per-unit path database to this JSON file")
	var externalWorkers []string
	fs.Func("worker", "dispatch to this already-running worker address instead of spawning processes (repeatable)",
		func(addr string) error {
			externalWorkers = append(externalWorkers, addr)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("cluster: want at least one C file")
	}
	if *resume && *journalPath == "" {
		return fmt.Errorf("cluster: -resume requires -journal")
	}
	if _, err := feas.ParseTier(*precision); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}

	specText := ""
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		specText = string(b)
	}

	// Load units exactly as `check` does, collecting include directories so
	// spawned workers resolve the same headers.
	var includeDirs []string
	units := make([]pallas.Unit, 0, fs.NArg())
	readErrs := map[string]error{}
	for _, path := range fs.Args() {
		if dir := filepath.Dir(path); !contains(includeDirs, dir) {
			includeDirs = append(includeDirs, dir)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			if !*keepGoing {
				return err
			}
			readErrs[path] = err
			continue
		}
		units = append(units, pallas.Unit{Name: filepath.Base(path), Source: string(b), Spec: specText})
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "pallas: "+format+"\n", a...)
	}
	copts := cluster.Options{
		HeartbeatInterval: *heartbeat,
		HeartbeatMisses:   *heartbeatMisses,
		RequestTimeout:    *requestTimeout,
		Inflight:          *inflight,
		Retries:           *retries,
		RetryBackoff:      *retryBackoff,
		HedgeAfter:        *hedgeAfter,
		HedgeMax:          *hedgeMax,
		JournalPath:       *journalPath,
		Resume:            *resume,
		GroupCommit:       *groupCommit,
		CachePeers:        *clusterCachePeers,
		CacheReplicas:     *clusterCacheReplicas,
		Logf:              logf,
	}
	if *hedgeAfter <= 0 {
		copts.HedgeAfter = -1 // flag convention: <=0 disables; Options convention: negative disables
	}
	coord, err := cluster.NewCoordinator(copts)
	if err != nil {
		return err
	}

	if *statusAddr != "" {
		sln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			return err
		}
		defer sln.Close()
		go http.Serve(sln, cluster.StatusHandler(coord, metrics.Default))
		logf("cluster: status on http://%s", sln.Addr())
	}

	if len(externalWorkers) > 0 {
		for _, addr := range externalWorkers {
			coord.AddWorker(addr)
		}
	} else {
		bin := *workerBinary
		if bin == "" {
			bin, err = os.Executable()
			if err != nil {
				return fmt.Errorf("cluster: cannot locate worker binary: %w", err)
			}
		}
		wargs := []string{"worker", "-addr", "127.0.0.1:0"}
		if *cacheDir != "" {
			wargs = append(wargs, "-cache-dir", *cacheDir)
		}
		if *cacheBytes != 0 {
			wargs = append(wargs, "-cache-bytes", strconv.FormatInt(*cacheBytes, 10))
		}
		if *incrDir != "" {
			wargs = append(wargs, "-incr-dir", *incrDir)
		}
		if *incrBytes != 0 {
			wargs = append(wargs, "-incr-bytes", strconv.FormatInt(*incrBytes, 10))
		}
		if *workers != 0 {
			wargs = append(wargs, "-workers", strconv.Itoa(*workers))
		}
		if *analysisWorkers != 0 {
			wargs = append(wargs, "-analysis-workers", strconv.Itoa(*analysisWorkers))
		}
		if *timeout != 0 {
			wargs = append(wargs, "-timeout", timeout.String())
		}
		if *keepGoing {
			wargs = append(wargs, "-keep-going")
		}
		if *checker != "" {
			wargs = append(wargs, "-checker", *checker)
		}
		if *precision != "" {
			wargs = append(wargs, "-precision", *precision)
		}
		if *clusterCacheReplicas != 0 {
			wargs = append(wargs, "-cache-replicas", strconv.Itoa(*clusterCacheReplicas))
		}
		if *clusterCacheStats {
			wargs = append(wargs, "-cache-stats")
		}
		for _, dir := range includeDirs {
			wargs = append(wargs, "-include-dir", dir)
		}
		sup := cluster.NewSupervisor(cluster.SupervisorOptions{
			Binary: bin,
			Args:   wargs,
			Env:    os.Environ(),
			// Restarted workers must not re-inherit injected faults: a
			// crash-armed worker would otherwise crash-loop through its
			// restart budget without ever finishing a unit.
			RestartEnv:  envWithout(os.Environ(), "PALLAS_FAILPOINTS"),
			MaxRestarts: *workerRestarts,
			OnUp:        coord.AddWorker,
			OnDown:      coord.RemoveWorker,
			OnExhausted: func(slot int, err error) {
				logf("cluster: worker slot %d exhausted its restart budget (%v); it will not return", slot, err)
			},
			Stderr: os.Stderr,
			Logf:   logf,
		})
		sup.Start(*clusterWorkers)
		defer sup.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	outcomes, stats, err := coord.Run(ctx, units)
	if err != nil {
		return err
	}

	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for path, err := range readErrs {
		fmt.Fprintf(os.Stderr, "pallas: %s: %v\n", path, err)
		raise(3)
	}
	results := make([]pallas.UnitResult, len(outcomes))
	for i, o := range outcomes {
		results[i] = unitResultFromOutcome(o)
	}
	pexit, err := printUnitResults(results, printOptions{
		asJSON:  *asJSON,
		htmlOut: *htmlOut,
		multi:   fs.NArg() > 1,
	})
	if err != nil {
		return err
	}
	raise(pexit)

	if *pathdb != "" {
		b, err := cluster.WriteMergedPaths(outcomes)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*pathdb, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pallas: cluster: merged path database written to %s\n", *pathdb)
	}

	fmt.Fprintf(os.Stderr,
		"pallas: cluster: %d unit(s): %d completed, %d resumed, %d failed, %d quarantined; %d requeue(s), %d eviction(s), %d duplicate(s) suppressed, %d cache hit(s)\n",
		stats.Units, stats.Completed, stats.Skipped, stats.Failed, stats.Quarantined,
		stats.Requeues, stats.Evictions, stats.DupCompletions, stats.CacheHits)
	if stats.Hedges+stats.StaleCompletions+stats.IntegrityFailures+stats.Probations > 0 {
		fmt.Fprintf(os.Stderr,
			"pallas: cluster: gray-failure defenses: %d hedge(s) (%d won), %d stale completion(s) fenced, %d integrity failure(s), %d probation(s)\n",
			stats.Hedges, stats.HedgeWins, stats.StaleCompletions, stats.IntegrityFailures, stats.Probations)
	}
	// PALLAS_STATS_OUT dumps the full run stats (counters and latency
	// quantiles) as JSON for benchmarks and e2e assertions — a machine
	// channel, so the human stderr lines above stay free to evolve.
	if statsOut := os.Getenv("PALLAS_STATS_OUT"); statsOut != "" {
		if b, jerr := json.MarshalIndent(stats, "", "  "); jerr == nil {
			if werr := os.WriteFile(statsOut, append(b, '\n'), 0o644); werr != nil {
				logf("cluster: stats out: %v", werr)
			}
		}
	}
	if *journalPath != "" {
		if stats.JournalTornTail {
			fmt.Fprintln(os.Stderr, "pallas: journal: recovered from a torn tail (crashed mid-checkpoint)")
		}
		if stats.JournalQuarantined > 0 {
			fmt.Fprintf(os.Stderr, "pallas: journal: quarantined %d corrupt record(s) to %s.quarantine\n",
				stats.JournalQuarantined, *journalPath)
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
	return nil
}

// unitResultFromOutcome rebuilds the UnitResult `check` would have produced
// for this unit, so printUnitResults renders identical bytes. Mirrors
// batch.go's replayRecord reconstruction from journal records.
func unitResultFromOutcome(o cluster.Outcome) pallas.UnitResult {
	out := pallas.UnitResult{
		Unit:        o.Unit,
		Diagnostics: o.Diagnostics,
		Attempts:    o.Attempts,
		Skipped:     o.Skipped,
		Quarantined: o.Status == journal.StatusQuarantined,
		Cached:      o.CacheHit,
	}
	if len(o.Report) > 0 {
		var rep pallas.Report
		if json.Unmarshal(o.Report, &rep) == nil {
			out.Result = &pallas.Result{Report: &rep, Diagnostics: o.Diagnostics}
		}
	}
	if o.Err != "" {
		out.Err = errors.New(o.Err)
	}
	return out
}

// envWithout returns env minus any KEY=... entries for key.
func envWithout(env []string, key string) []string {
	out := make([]string, 0, len(env))
	prefix := key + "="
	for _, kv := range env {
		if !strings.HasPrefix(kv, prefix) {
			out = append(out, kv)
		}
	}
	return out
}
