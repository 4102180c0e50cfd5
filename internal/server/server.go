// Package server is the analysis-as-a-service layer of Pallas: a
// long-running HTTP/JSON front end over the batch engine, so a fleet of
// clients (editors, CI jobs, commit bots) can share one warm process, one
// result cache, and one set of metrics instead of each paying full
// lex/preprocess/parse/path-extraction cost per invocation.
//
// Endpoints:
//
//	POST /v1/analyze       analyze one unit (source + spec); cached
//	GET  /v1/report/{key}  fetch a cached result by content hash
//	GET  /healthz          liveness/readiness (503 while draining);
//	                       ?verbose=1 adds overload/queue/breaker detail
//	GET  /metrics          Prometheus text exposition
//
// Every analysis runs on a bounded guard.Gate under the configured
// per-request budgets with the engine's degradation semantics: a hostile
// unit can exhaust its own budget or crash its own slot (surfacing as a
// degraded result or a 4xx/5xx for that request), but it cannot take down
// or starve the server. Identical concurrent requests are collapsed by the
// cache's singleflight, so a thundering herd of one unit costs one
// analysis.
//
// In front of the gate sits the overload layer (internal/overload): a
// per-client token-bucket rate limiter, then a bounded deadline-aware
// admission queue whose effective width adapts between MinWorkers and
// Workers as observed latency rises and falls. Requests that cannot be
// served in time are shed early with 429/503, a Retry-After header and a
// machine-readable retry_after_ms, so a traffic burst degrades service for
// the excess instead of for everyone. Disk faults in the persistent cache
// tier trip a circuit breaker to memory-only mode rather than failing
// requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/incr"
	"pallas/internal/metrics"
	"pallas/internal/overload"
	"pallas/internal/rcache"
	"pallas/internal/rcache/peer"
)

// Server-specific metric names; the cache/analysis counters are the shared
// pallas.Metric* names, so batch and serve activity land in one registry.
const (
	// MetricRequests counts accepted /v1/analyze requests.
	MetricRequests = "pallas_requests_total"
	// MetricRequestErrors counts /v1/analyze requests answered with an
	// error status (bad input, overload, failed analysis).
	MetricRequestErrors = "pallas_request_errors_total"
	// MetricInFlight gauges requests currently being served.
	MetricInFlight = "pallas_in_flight"
	// MetricRequestSeconds is the /v1/analyze latency histogram.
	MetricRequestSeconds = "pallas_request_seconds"

	// MetricShedQueueFull counts requests shed because the admission queue
	// was at capacity.
	MetricShedQueueFull = "pallas_shed_queue_full_total"
	// MetricShedDeadline counts requests shed because their deadline passed
	// or provably could not be met.
	MetricShedDeadline = "pallas_shed_deadline_total"
	// MetricShedRateLimited counts requests refused by the token-bucket
	// rate limiter.
	MetricShedRateLimited = "pallas_shed_rate_limited_total"
	// MetricShedDraining counts requests rejected because the server was
	// draining.
	MetricShedDraining = "pallas_shed_draining_total"
	// MetricQueueDepth gauges requests waiting in the admission queue.
	MetricQueueDepth = "pallas_queue_depth"
	// MetricEffectiveLimit gauges the adaptive limiter's current effective
	// concurrency (between MinWorkers and Workers).
	MetricEffectiveLimit = "pallas_effective_limit"
	// MetricBreakerState gauges the persistent cache tier's breaker:
	// 0 closed, 1 half-open, 2 open.
	MetricBreakerState = "pallas_cache_breaker_state"
	// MetricPersistFaults counts analyses whose report was served but could
	// not be persisted to the cache's disk tier.
	MetricPersistFaults = "pallas_cache_persist_faults_total"
	// MetricCacheSumMismatch counts cache hits whose stored content checksum
	// no longer matched their bytes (bit rot, torn write, hostile edit); the
	// entry is discarded and the unit re-analyzed rather than served.
	MetricCacheSumMismatch = "pallas_cache_sum_mismatch_total"
)

// DefaultMaxRequestBytes bounds an /v1/analyze body (16 MiB) — large enough
// for any merged kernel translation unit in the corpus, small enough that a
// hostile client cannot balloon the heap with one POST.
const DefaultMaxRequestBytes = 16 << 20

// DefaultMaxQueue bounds the admission queue when Config.MaxQueue is zero.
const DefaultMaxQueue = 256

// ClientHeader identifies the caller for per-client rate limiting; absent,
// the remote address's host is used.
const ClientHeader = "X-Pallas-Client"

// Config configures New.
type Config struct {
	// Analyzer is the engine configuration every request runs under; its
	// Deadline/MaxSteps/MaxMacroExpansions are the per-request budgets.
	// Deadline doubles as the default admission deadline: a request that
	// cannot be admitted before it is shed (max_wait_ms overrides).
	// Analyzer.AnalysisWorkers additionally fans each admitted request out
	// across that many intra-unit goroutines, so the server's total
	// analysis concurrency is bounded by Workers × AnalysisWorkers, where
	// an AnalysisWorkers of 0 counts as GOMAXPROCS; keep the product near
	// GOMAXPROCS. Responses are byte-identical at any
	// worker count, so cache entries stay shared across settings.
	Analyzer pallas.Config
	// Workers bounds concurrent analyses (not connections); <= 0 means
	// GOMAXPROCS. This is the adaptive limiter's ceiling.
	Workers int
	// MinWorkers is the adaptive limiter's floor: under sustained latency
	// inflation the effective concurrency shrinks toward it, and grows back
	// to Workers on recovery. <= 0 means 1; set equal to Workers to disable
	// adaptation.
	MinWorkers int
	// MaxQueue bounds requests waiting for admission; beyond it requests
	// are shed with 503. 0 means DefaultMaxQueue; negative disables
	// queueing entirely (strict-latency mode: shed the moment every
	// effective worker is busy).
	MaxQueue int
	// RatePerClient and RateBurst configure the per-client token bucket
	// (requests/second, keyed by X-Pallas-Client or remote host). 0 rate
	// disables per-client limiting; 0 burst defaults to the rate.
	RatePerClient float64
	RateBurst     float64
	// GlobalRate and GlobalBurst configure the server-wide bucket.
	GlobalRate  float64
	GlobalBurst float64
	// CacheBytes bounds the result cache's memory tier (<= 0: rcache
	// default).
	CacheBytes int64
	// CacheDir, when non-empty, adds the persistent cache tier shared with
	// `pallas check -cache-dir`.
	CacheDir string
	// BreakerThreshold and BreakerCooldown configure the persistent tier's
	// circuit breaker (see rcache.Options); 0 means defaults, negative
	// threshold disables it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// CachePeers lists the members of a static shared cache tier (worker
	// cache endpoints, host:port). Cluster workers usually leave this empty
	// and receive their peer map from the coordinator instead; a static
	// serve fleet lists every member here (self included or not — it is
	// added). Empty with no pushes means the tier is inert: pure local
	// caching, the tier's own degraded mode.
	CachePeers []string
	// CacheReplicas is the tier's replication factor (how many ring owners
	// each key has); <= 0 means peer.DefaultReplicas.
	CacheReplicas int
	// CacheSelf is this process's own cache address on the tier; workers
	// bind ephemeral ports and fix it later via SetAdvertiseAddr.
	CacheSelf string
	// CachePeerTimeout overrides the tier's per-op deadline (tests; <= 0
	// means peer.DefaultOpTimeout).
	CachePeerTimeout time.Duration
	// Metrics receives the server's instruments; nil means metrics.Default.
	Metrics *metrics.Registry
	// MaxRequestBytes caps an analyze body; <= 0 means
	// DefaultMaxRequestBytes.
	MaxRequestBytes int64
}

// Server handles the HTTP API. Create with New, serve via Handler.
type Server struct {
	analyzer *pallas.Analyzer
	cache    *rcache.Cache
	peers    *peer.Tier
	gate     *guard.Gate
	ctrl     *overload.Controller
	limiter  *overload.Limiter
	rate     *overload.RateLimiter
	reg      *metrics.Registry
	mux      *http.ServeMux
	start    time.Time
	maxBody  int64
	maxQ     int
	deadline time.Duration // default admission deadline (Analyzer.Deadline)
	aworkers int           // Analyzer.AnalysisWorkers, surfaced by /healthz
	feasTier feas.Tier     // Analyzer.Precision, surfaced by /healthz and stats
	draining atomic.Bool

	// Cluster-worker state: the address this worker advertises in result
	// frames, and how many cluster units it has completed (for heartbeats).
	advertise   atomic.Value // string
	clusterDone atomic.Int64

	mRequests     *metrics.Counter
	mErrors       *metrics.Counter
	mCacheHits    *metrics.Counter
	mCacheMisses  *metrics.Counter
	mAnalyzed     *metrics.Counter
	mDegraded     *metrics.Counter
	mShedQueue    *metrics.Counter
	mShedDeadline *metrics.Counter
	mShedRate     *metrics.Counter
	mShedDraining *metrics.Counter
	mPersistFault *metrics.Counter
	mSumMismatch  *metrics.Counter
	gInFlight     *metrics.Gauge
	gQueueDepth   *metrics.Gauge
	gEffLimit     *metrics.Gauge
	gBreaker      *metrics.Gauge
	hLatency      *metrics.Histogram
}

// New builds a server (opening the cache directory when configured).
func New(cfg Config) (*Server, error) {
	cache, err := rcache.Open(rcache.Options{
		MaxBytes:         cfg.CacheBytes,
		Dir:              cfg.CacheDir,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
	})
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	maxBody := cfg.MaxRequestBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxRequestBytes
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	} else if maxQueue < 0 {
		maxQueue = 0
	}
	gate := guard.NewGate(cfg.Workers)
	minWorkers := cfg.MinWorkers
	if minWorkers <= 0 {
		minWorkers = 1
	}
	limiter := overload.NewLimiter(minWorkers, gate.Cap())
	// The shared cache tier exists unconditionally — with no peers it is
	// inert (every op short-circuits to the local cache), which is also its
	// degraded mode under a full partition, so the two paths stay one code
	// path. The function memo rides the same tier as its own key space.
	tier := peer.New(cache, peer.Options{
		Self:      cfg.CacheSelf,
		Replicas:  cfg.CacheReplicas,
		OpTimeout: cfg.CachePeerTimeout,
		Registry:  reg,
	})
	acfg := cfg.Analyzer
	if acfg.Incremental != nil {
		inc := *acfg.Incremental
		inc.Shared = tier
		acfg.Incremental = &inc
	}
	analyzer := pallas.New(acfg)
	// An unusable -incr-dir should fail startup, not silently serve cold.
	if err := analyzer.EnsureIncremental(); err != nil {
		tier.Close()
		return nil, err
	}
	// An unknown precision tier would otherwise fail every request.
	feasTier, err := feas.ParseTier(cfg.Analyzer.Precision)
	if err != nil {
		tier.Close()
		return nil, err
	}
	if feasTier != feas.Fast {
		// Pre-register the feasibility counters so /metrics exposes them
		// from the first scrape, not the first pruned path. The fast tier
		// never prunes, so it keeps the historical exposition byte-for-byte.
		reg.Counter(metrics.MetricFeasPathsPruned, metrics.HelpFeasPathsPruned)
		reg.Counter(metrics.MetricFeasContradictions, metrics.HelpFeasContradictions)
	}
	if len(cfg.CachePeers) > 0 {
		members := append([]string(nil), cfg.CachePeers...)
		if cfg.CacheSelf != "" {
			present := false
			for _, m := range members {
				present = present || m == cfg.CacheSelf
			}
			if !present {
				members = append(members, cfg.CacheSelf)
			}
		}
		tier.Update(cluster.PeerMap{Epoch: 1, Peers: members, Replicas: cfg.CacheReplicas})
	}
	s := &Server{
		analyzer: analyzer,
		cache:    cache,
		peers:    tier,
		gate:     gate,
		ctrl:     overload.NewController(limiter, maxQueue),
		limiter:  limiter,
		rate:     overload.NewRateLimiter(cfg.RatePerClient, cfg.RateBurst, cfg.GlobalRate, cfg.GlobalBurst),
		reg:      reg,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		maxBody:  maxBody,
		maxQ:     maxQueue,
		deadline: cfg.Analyzer.Deadline,
		aworkers: cfg.Analyzer.AnalysisWorkers,
		feasTier: feasTier,

		mRequests:     reg.Counter(MetricRequests, "accepted analyze requests"),
		mErrors:       reg.Counter(MetricRequestErrors, "analyze requests answered with an error"),
		mCacheHits:    reg.Counter(pallas.MetricCacheHits, "result-cache hits"),
		mCacheMisses:  reg.Counter(pallas.MetricCacheMisses, "result-cache misses"),
		mAnalyzed:     reg.Counter(pallas.MetricUnitsAnalyzed, "analysis pipeline executions (cache and resume misses)"),
		mDegraded:     reg.Counter(pallas.MetricDegraded, "analyses that completed partially"),
		mShedQueue:    reg.Counter(MetricShedQueueFull, "requests shed: admission queue full"),
		mShedDeadline: reg.Counter(MetricShedDeadline, "requests shed: deadline unmeetable"),
		mShedRate:     reg.Counter(MetricShedRateLimited, "requests shed: rate limited"),
		mShedDraining: reg.Counter(MetricShedDraining, "requests shed: draining"),
		mPersistFault: reg.Counter(MetricPersistFaults, "served results that could not be persisted"),
		mSumMismatch:  reg.Counter(MetricCacheSumMismatch, "cache entries failing their content checksum, recomputed"),
		gInFlight:     reg.Gauge(MetricInFlight, "requests currently being served"),
		gQueueDepth:   reg.Gauge(MetricQueueDepth, "requests waiting in the admission queue"),
		gEffLimit:     reg.Gauge(MetricEffectiveLimit, "adaptive effective concurrency limit"),
		gBreaker:      reg.Gauge(MetricBreakerState, "cache persistent-tier breaker: 0 closed, 1 half-open, 2 open"),
		hLatency:      reg.Histogram(MetricRequestSeconds, "analyze latency in seconds", nil),
	}
	s.gEffLimit.Set(int64(limiter.Limit()))
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/report/", s.handleReport)
	s.mux.HandleFunc("/v1/cluster/unit", s.handleClusterUnit)
	s.mux.HandleFunc("/v1/cluster/ping", s.handleClusterPing)
	s.mux.HandleFunc(peer.GetPath, s.handleCacheGet)
	s.mux.HandleFunc(peer.PutPath, s.handleCachePut)
	s.mux.HandleFunc(peer.MapPath, s.handleCacheMap)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (tests and the CLI stats line).
func (s *Server) Cache() *rcache.Cache { return s.cache }

// PeerTier exposes the shared cache tier (stats lines, map pushes in
// tests, and the CLI's -cache-stats dump).
func (s *Server) PeerTier() *peer.Tier { return s.peers }

// IncrStats surfaces the function-memo counters (false when incremental
// analysis is off).
func (s *Server) IncrStats() (incr.Stats, bool) { return s.analyzer.IncrStats() }

// FeasTier reports the feasibility tier this server's analyses run under.
func (s *Server) FeasTier() feas.Tier { return s.feasTier }

// FeasStats surfaces the feasibility layer's cumulative pruning counters
// (always zero on the fast tier).
func (s *Server) FeasStats() pallas.FeasStats { return s.analyzer.FeasStats() }

// Close releases background resources (the peer tier's handoff drain
// loop). The HTTP handler must not be used afterwards.
func (s *Server) Close() { s.peers.Close() }

// InFlight reports how many analyses currently hold a gate slot.
func (s *Server) InFlight() int64 { return s.gate.InFlight() }

// StartDrain puts the server into draining mode: /healthz flips to 503 so
// load balancers stop routing here, new analyze requests are refused with
// 503, and — crucially for bounded shutdown — every queued-but-unadmitted
// request is rejected immediately instead of holding its slot until its
// deadline. In-flight analyses run to completion (http.Server.Shutdown
// holds the listener open for them).
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.ctrl.Drain()
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AnalyzeRequest is the /v1/analyze body.
type AnalyzeRequest struct {
	// Name identifies the unit in reports and diagnostics (a file name).
	Name string `json:"name"`
	// Source is the C source text.
	Source string `json:"source"`
	// Spec is the semantic specification document (may be empty when the
	// source carries inline `// @pallas:` annotations).
	Spec string `json:"spec,omitempty"`
	// MaxWaitMS caps how long this request may wait for admission, in
	// milliseconds, overriding the server's default (-timeout). A request
	// that cannot be admitted in time is shed with 503 and a Retry-After
	// hint instead of queueing uselessly.
	MaxWaitMS int64 `json:"max_wait_ms,omitempty"`
}

// AnalyzeResponse is the /v1/analyze result.
type AnalyzeResponse struct {
	// Name echoes the request.
	Name string `json:"name"`
	// Key is the content-address of the result (usable with /v1/report).
	Key string `json:"key"`
	// Cache is "hit" when the report was served from the result cache
	// (including singleflight shares), "miss" when this request ran the
	// analysis.
	Cache string `json:"cache"`
	// Degraded mirrors the report's degraded flag.
	Degraded bool `json:"degraded,omitempty"`
	// Warnings counts report warnings.
	Warnings int `json:"warnings"`
	// Report is the full report JSON — byte-identical across hits of one
	// entry.
	Report json.RawMessage `json:"report"`
	// Diagnostics carries the degradation record, if any.
	Diagnostics []pallas.Diagnostic `json:"diagnostics,omitempty"`
	// ElapsedMS is the server-side handling time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorBody is every non-2xx JSON payload: a human-readable reason plus,
// for shed/overload responses, a machine-readable retry hint mirroring the
// Retry-After header at millisecond resolution. The shape is pinned by a
// golden test.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.mErrors.Inc()
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// shed answers an overload rejection: Retry-After header in whole seconds
// (rounded up, minimum 1 — the header has no sub-second resolution) and the
// exact hint in the body's retry_after_ms.
func (s *Server) shed(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	s.mErrors.Inc()
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, status, errorBody{
		Error:        fmt.Sprintf(format, args...),
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// jitterRetry spreads a Retry-After hint uniformly over [d, 1.5d]. Every
// shed during one overload spike carries the same base hint; without
// jitter the whole rejected cohort retries on one edge and re-creates the
// spike it was shed to relieve. Jitter is upward only — never earlier than
// the base hint, so rate-limit waits stay honest. Draining sheds are not
// jittered: their hint is a fixed contract (clients re-resolve, they don't
// re-queue).
func jitterRetry(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// clientKey identifies the caller for rate limiting.
func clientKey(r *http.Request) string {
	if c := r.Header.Get(ClientHeader); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// syncGauges refreshes the overload gauges after an admission event or on
// scrape, so /metrics reflects the live queue and limiter state.
func (s *Server) syncGauges() {
	s.gQueueDepth.Set(int64(s.ctrl.QueueDepth()))
	s.gEffLimit.Set(int64(s.ctrl.EffectiveLimit()))
	var state int64
	switch s.cache.TierHealth() {
	case "half-open":
		state = 1
	case "open":
		state = 2
	}
	s.gBreaker.Set(state)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.mShedDraining.Inc()
		s.shed(w, http.StatusServiceUnavailable, time.Second, "draining")
		return
	}
	// Rate limiting happens before the body is even read: refusing a
	// too-chatty client must stay O(1).
	if ok, wait := s.rate.Allow(clientKey(r)); !ok {
		s.mShedRate.Inc()
		s.shed(w, http.StatusTooManyRequests, jitterRetry(wait), "rate limit exceeded for client %q", clientKey(r))
		return
	}
	s.mRequests.Inc()
	s.gInFlight.Add(1)
	defer func() {
		s.gInFlight.Add(-1)
		s.hLatency.Observe(time.Since(started).Seconds())
	}()

	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Name == "" {
		req.Name = "unit.c"
	}
	if req.Source == "" {
		s.fail(w, http.StatusBadRequest, "source is required")
		return
	}

	// Admission: wait for an effective-limit slot, bounded by the request's
	// deadline (max_wait_ms, else the server's -timeout). Shed early when
	// the wait is hopeless.
	var deadline time.Time
	switch {
	case req.MaxWaitMS > 0:
		deadline = started.Add(time.Duration(req.MaxWaitMS) * time.Millisecond)
	case s.deadline > 0:
		deadline = started.Add(s.deadline)
	}
	if err := s.ctrl.Acquire(r.Context(), deadline); err != nil {
		s.shedForReason(w, err)
		s.syncGauges()
		return
	}
	admitted := time.Now()
	defer func() {
		// Service latency only (admission to completion): feeding queue wait
		// into the limiter would make its own backlog look like downstream
		// slowness and collapse the limit under transient bursts.
		s.ctrl.Release(time.Since(admitted))
		s.syncGauges()
	}()
	s.syncGauges()

	unit := pallas.Unit{Name: req.Name, Source: req.Source, Spec: req.Spec}
	key := s.analyzer.CacheKey(unit)
	entry, hit, err := s.cache.GetOrCompute(key, func() (*rcache.Entry, error) {
		return s.analyzeOne(r.Context(), unit, key)
	})
	if err != nil && errors.Is(err, rcache.ErrPersist) && entry != nil {
		// The analysis succeeded and is memory-cached; only the disk tier
		// faulted. Serve the result — the breaker will trip the tier to
		// memory-only mode if the disk keeps failing.
		s.mPersistFault.Inc()
		err = nil
	}
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			s.fail(w, http.StatusInternalServerError, "analysis crashed: %v", err)
		} else {
			s.fail(w, http.StatusUnprocessableEntity, "analysis failed: %v", err)
		}
		return
	}
	if hit {
		s.mCacheHits.Inc()
	} else {
		s.mCacheMisses.Inc()
	}
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Name:        entry.Unit,
		Key:         key,
		Cache:       cacheState,
		Degraded:    entry.Degraded,
		Warnings:    entry.Warnings,
		Report:      entry.Report,
		Diagnostics: entry.Diagnostics,
		ElapsedMS:   float64(time.Since(started).Microseconds()) / 1000,
	})
}

// shedForReason maps an admission failure to its status code, metric, and
// Retry-After hint.
func (s *Server) shedForReason(w http.ResponseWriter, err error) {
	retry := jitterRetry(s.ctrl.RetryAfter())
	switch {
	case errors.Is(err, overload.ErrQueueFull):
		s.mShedQueue.Inc()
		s.shed(w, http.StatusServiceUnavailable, retry, "overloaded: admission queue full")
	case errors.Is(err, overload.ErrDeadline):
		s.mShedDeadline.Inc()
		s.shed(w, http.StatusServiceUnavailable, retry, "overloaded: deadline cannot be met")
	case errors.Is(err, overload.ErrDraining):
		s.mShedDraining.Inc()
		s.shed(w, http.StatusServiceUnavailable, time.Second, "draining")
	default:
		// Client context canceled or similar: the caller is gone, but
		// answer coherently for proxies that still relay the response.
		s.fail(w, http.StatusServiceUnavailable, "request abandoned: %v", err)
	}
}

// analyzeOne runs one real analysis on the gate — bounded concurrency,
// panic isolation, per-request budgets — and packages it as a cache entry.
// The request context flows into the gate acquisition: a client that
// disconnects while queued for a slot releases its place immediately
// instead of running an analysis nobody will read. withPaths additionally
// marshals the unit's path database into the entry (cluster dispatches need
// it for the merged pathdb; plain serve responses do not carry paths, so
// they skip the cost).
func (s *Server) analyzeOne(ctx context.Context, unit pallas.Unit, key string) (*rcache.Entry, error) {
	return s.computeUnit(ctx, unit, key, false)
}

// computeUnit is the miss path behind the cache's singleflight: before
// paying for a real analysis it asks the shared cache tier whether another
// worker already has the entry (verified remote hit), and replicates what
// it freshly produced to the key's ring owners. Every remote failure mode
// degrades to the local analysis below it.
func (s *Server) computeUnit(ctx context.Context, unit pallas.Unit, key string, withPaths bool) (*rcache.Entry, error) {
	if e, ok := s.peers.FetchRemote(peer.SpaceUnit, key); ok {
		if !withPaths || len(e.Paths) > 0 {
			return e, nil
		}
		// A path-less remote entry cannot serve a cluster dispatch; fall
		// through to the analysis and let the richer entry win.
	}
	e, err := s.analyzeUnit(ctx, unit, key, withPaths)
	if err != nil {
		return nil, err
	}
	s.peers.ReplicateRemote(peer.SpaceUnit, e)
	return e, nil
}

func (s *Server) analyzeUnit(ctx context.Context, unit pallas.Unit, key string, withPaths bool) (*rcache.Entry, error) {
	var res *pallas.Result
	err := s.gate.DoContext(ctx, guard.StageServe, unit.Name, func() error {
		var aerr error
		res, aerr = s.analyzer.AnalyzeSource(unit.Name, unit.Source, unit.Spec)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	s.mAnalyzed.Inc()
	if res.Degraded() {
		s.mDegraded.Inc()
	}
	b, err := json.Marshal(res.Report)
	if err != nil {
		return nil, err
	}
	entry := &rcache.Entry{
		Key:         key,
		Unit:        unit.Name,
		Report:      b,
		Diagnostics: res.Diagnostics,
		Degraded:    res.Report.Degraded,
		Warnings:    len(res.Report.Warnings),
	}
	if withPaths {
		pb, err := json.Marshal(res.Paths)
		if err != nil {
			return nil, err
		}
		entry.Paths = pb
	}
	// The content checksum is fixed here, where the bytes are born: every
	// downstream hop — cache tiers, result frames, the coordinator's merge —
	// verifies against this, not against whatever it happens to receive.
	entry.Sum = rcache.ContentSum(entry.Report, entry.Paths)
	return entry, nil
}

// handleReport serves a cached entry by content hash: 200 with the entry
// JSON, or 404 when neither tier holds it.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/report/")
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		s.fail(w, http.StatusBadRequest, "key must be 64 hex characters")
		return
	}
	entry, ok := s.cache.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, "no cached report for %s", key)
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

// healthBody is the /healthz payload.
type healthBody struct {
	Status        string `json:"status"`
	InFlight      int64  `json:"in_flight"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Workers       int    `json:"workers"`
	CacheEntries  int    `json:"cache_entries"`
	CacheBytes    int64  `json:"cache_bytes"`
}

// healthVerbose is the /healthz?verbose=1 payload: everything an
// orchestrator needs to tell "draining" (status) from "overloaded" (queue
// depth at max, effective limit at the floor, sheds climbing) from
// "degraded storage" (cache tier open).
type healthVerbose struct {
	healthBody
	QueueDepth      int                `json:"queue_depth"`
	EffectiveLimit  int                `json:"effective_limit"`
	MinWorkers      int                `json:"min_workers"`
	AnalysisWorkers int                `json:"analysis_workers"`
	MaxQueue        int                `json:"max_queue"`
	Admitted        int64              `json:"admitted_total"`
	Shed            overload.ShedStats `json:"shed"`
	RateDenied      int64              `json:"rate_denied_total"`
	CacheTier       string             `json:"cache_tier"`
	CacheDiskFaults int64              `json:"cache_disk_faults"`
	CacheDiskPrunes int64              `json:"cache_disk_full_prunes"`
	BreakerTrips    int64              `json:"cache_breaker_trips"`
	// PeerCache summarizes the shared cache tier (omitted while inert: no
	// peers configured or pushed).
	PeerCache *peer.Stats `json:"peer_cache,omitempty"`
	// Incr summarizes the function memo (omitted when incremental analysis
	// is off).
	Incr *incr.Stats `json:"incr,omitempty"`
	// Precision names the feasibility tier and Feas its pruning counters
	// (both omitted on the default fast tier, which never prunes).
	Precision string            `json:"precision,omitempty"`
	Feas      *pallas.FeasStats `json:"feas,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Readiness flip: a draining instance answers but advertises that
		// traffic should move elsewhere.
		status, code = "draining", http.StatusServiceUnavailable
	}
	base := healthBody{
		Status:        status,
		InFlight:      s.gate.InFlight(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Workers:       s.gate.Cap(),
		CacheEntries:  s.cache.Len(),
		CacheBytes:    s.cache.Bytes(),
	}
	if r.URL.Query().Get("verbose") != "1" {
		writeJSON(w, code, base)
		return
	}
	st := s.cache.Stats()
	body := healthVerbose{
		healthBody:      base,
		QueueDepth:      s.ctrl.QueueDepth(),
		EffectiveLimit:  s.ctrl.EffectiveLimit(),
		MinWorkers:      s.limiter.Min(),
		AnalysisWorkers: s.aworkers,
		MaxQueue:        s.maxQueue(),
		Admitted:        s.ctrl.Admitted(),
		Shed:            s.ctrl.Shed(),
		RateDenied:      s.rate.Denied(),
		CacheTier:       s.cache.TierHealth(),
		CacheDiskFaults: st.DiskFaults,
		CacheDiskPrunes: st.DiskFullPrunes,
		BreakerTrips:    st.BreakerTrips,
	}
	if s.peers.Enabled() || s.peers.Epoch() > 0 {
		ps := s.peers.Stats()
		body.PeerCache = &ps
	}
	if ist, ok := s.analyzer.IncrStats(); ok {
		body.Incr = &ist
	}
	if s.feasTier != feas.Fast {
		body.Precision = s.feasTier.String()
		fst := s.analyzer.FeasStats()
		body.Feas = &fst
	}
	writeJSON(w, code, body)
}

// maxQueue reports the admission queue bound (for health reporting).
func (s *Server) maxQueue() int { return s.maxQ }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
