package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pallas"
	"pallas/internal/feas"
	"pallas/internal/server"
)

// cmdServe runs the long-lived analysis service: an HTTP/JSON API over the
// same engine as `check`, fronted by the content-addressed result cache and
// a Prometheus /metrics endpoint. SIGTERM/SIGINT starts a graceful drain —
// /healthz flips to 503, new analyze requests are refused, in-flight ones
// finish — and the process exits 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7777", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 0, "memory result-cache budget in bytes (0 = default)")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory (shared with `check -cache-dir`)")
	incrDir := fs.String("incr-dir", "", "persistent function-level memo directory (shared with `check -incr-dir`); re-analyzes only edited functions and their transitive callers")
	incrBytes := fs.Int64("incr-bytes", 0, "function memo byte budget, memory and disk (0 = default)")
	workers := fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS); ceiling of the adaptive limit")
	analysisWorkers := fs.Int("analysis-workers", 0, "goroutines per analysis for per-function extraction and checkers (0 = GOMAXPROCS, 1 = serial; total concurrency is -workers times this)")
	minWorkers := fs.Int("min-workers", 0, "adaptive concurrency floor under sustained latency inflation (0 = 1; equal to -workers disables adaptation)")
	maxQueue := fs.Int("max-queue", 0, "admission queue bound; beyond it requests are shed with 503 (0 = 256, negative = no queueing)")
	rate := fs.Float64("rate", 0, "per-client request rate limit in req/s, keyed by X-Pallas-Client or remote host (0 = unlimited)")
	rateBurst := fs.Float64("rate-burst", 0, "per-client burst size (0 = the rate)")
	globalRate := fs.Float64("global-rate", 0, "server-wide request rate limit in req/s (0 = unlimited)")
	globalBurst := fs.Float64("global-burst", 0, "server-wide burst size (0 = the rate)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive cache disk faults before tripping to memory-only mode (0 = 5, negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long a tripped cache tier stays memory-only before probing recovery (0 = 5s)")
	timeout := fs.Duration("timeout", 0, "per-request deadline covering admission wait and analysis; expiry sheds queued requests and degrades running ones (0 = none)")
	keepGoing := fs.Bool("keep-going", false, "degrade instead of failing on malformed input (matches `check -keep-going`)")
	precision := fs.String("precision", "", "feasibility tier: fast (default), balanced, strict (matches `check -precision`; tiers never share cache entries)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
	cacheReplicas := fs.Int("cache-replicas", 0, "shared-cache-tier replication factor (0 = 2)")
	cacheStats := fs.Bool("cache-stats", false, "print unit-cache, function-memo and peer-tier summaries to stderr at exit")
	var cachePeers []string
	fs.Func("cache-peers", "peer cache endpoint host:port forming a static shared cache tier (repeatable; include or omit this server's own -addr, it is excluded from its own remote ops either way)",
		func(addr string) error {
			cachePeers = append(cachePeers, addr)
			return nil
		})
	var includeDirs []string
	fs.Func("include-dir", "serve #include files from this directory (repeatable; match `check` inputs' directories to share cache entries)",
		func(dir string) error {
			includeDirs = append(includeDirs, dir)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	if _, err := feas.ParseTier(*precision); err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	acfg := pallas.Config{
		Deadline:        *timeout,
		KeepGoing:       *keepGoing,
		IncludeDirs:     includeDirs,
		AnalysisWorkers: *analysisWorkers,
		Precision:       *precision,
	}
	if *incrDir != "" || *incrBytes > 0 {
		acfg.Incremental = &pallas.IncrementalOptions{Dir: *incrDir, MaxBytes: *incrBytes}
	}
	srv, err := server.New(server.Config{
		Analyzer:         acfg,
		Workers:          *workers,
		MinWorkers:       *minWorkers,
		MaxQueue:         *maxQueue,
		RatePerClient:    *rate,
		RateBurst:        *rateBurst,
		GlobalRate:       *globalRate,
		GlobalBurst:      *globalBurst,
		CacheBytes:       *cacheBytes,
		CacheDir:         *cacheDir,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		CachePeers:       cachePeers,
		CacheReplicas:    *cacheReplicas,
		CacheSelf:        *addr,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Drain on SIGTERM/SIGINT: stop advertising readiness, refuse new
	// analyses, let http.Server.Shutdown hold the listener open for
	// in-flight requests, then exit 0.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	drained := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "pallas: serve: %v received, draining (in-flight: %d)\n",
			sig, srv.InFlight())
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drained <- hs.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "pallas: serving on http://%s (cache dir %q)\n", *addr, *cacheDir)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	st := srv.Cache().Stats()
	fmt.Fprintf(os.Stderr, "pallas: serve: drained cleanly (%d analyses, %d cache hits)\n",
		st.Computes, st.Hits)
	if *cacheStats {
		printServerCacheStats(os.Stderr, srv)
	}
	srv.Close()
	return nil
}

// printServerCacheStats renders the serve/worker -cache-stats exit dump: the
// unit result cache, the function memo, the feasibility layer, and the
// shared peer tier, one line each — the same numbers /healthz?verbose=1
// reports, without scraping.
func printServerCacheStats(w io.Writer, srv *server.Server) {
	cs := srv.Cache().Stats()
	fmt.Fprintf(w, "pallas: unit cache: %d hit(s) (%d mem, %d disk), %d miss(es), %d compute(s), %d disk-full prune(s)\n",
		cs.Hits, cs.MemHits, cs.DiskHits, cs.Misses, cs.Computes, cs.DiskFullPrunes)
	if is, ok := srv.IncrStats(); ok {
		fmt.Fprintf(w, "pallas: func memo: %d hit(s), %d miss(es), %d invalidation(s); unit verdicts: %d hit(s), %d miss(es)\n",
			is.FuncHits, is.FuncMisses, is.FuncInvalidations, is.UnitHits, is.UnitMisses)
	} else {
		fmt.Fprintln(w, "pallas: func memo: off (enable with -incr-dir)")
	}
	if tier := srv.FeasTier(); tier != feas.Fast {
		fst := srv.FeasStats()
		fmt.Fprintf(w, "pallas: feas (%s): %d path(s) pruned, %d contradiction(s)\n",
			tier, fst.Pruned, fst.Contradictions)
	} else {
		fmt.Fprintln(w, "pallas: feas: off (fast tier; enable with -precision balanced|strict)")
	}
	ps := srv.PeerTier().Stats()
	if ps.Peers == 0 && ps.Epoch == 0 {
		fmt.Fprintln(w, "pallas: peer cache: off (enable with -cache-peers or cluster mode)")
		return
	}
	fmt.Fprintf(w, "pallas: peer cache: epoch %d, %d peer(s): %d hit(s), %d miss(es), %d rot refusal(s), %d read repair(s), %d timeout(s)\n",
		ps.Epoch, ps.Peers, ps.Hits, ps.Misses, ps.RotRefusals, ps.Repairs, ps.Timeouts)
	fmt.Fprintf(w, "pallas: peer cache: %d put(s) (%d bytes replicated); handoff %d queued, %d drained, %d dropped, %d pending; %d breaker trip(s), %d stale-epoch refusal(s)\n",
		ps.Puts, ps.PutBytes, ps.HandoffQueued, ps.HandoffDrained, ps.HandoffDropped, ps.HandoffPending, ps.BreakerTrips, ps.StaleRefusals)
}
