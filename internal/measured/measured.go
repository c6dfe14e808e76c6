// Package measured turns the batch campaign engine into a long-running
// measurement service: many probe clients submit (technique × scenario ×
// impairment × trials) requests over HTTP, and one persistent campaign
// worker pool — shared across all of them — executes the runs. This is the
// paper's mediation argument as infrastructure: instead of every consumer
// paying full campaign startup and measuring alone, the service admits,
// dedupes, schedules, and streams.
//
// The pipeline each request traverses:
//
//		admission → dedupe → schedule → stream
//
//	  - Admission: requests are validated against the E11 applicability
//	    matrix (via campaign.NewPlan), rate-limited per client by a token
//	    bucket, and bounded by a service-wide admission queue — a full queue
//	    or an over-budget service rejects rather than degrades.
//	  - Dedupe: every run has the deterministic result identity
//	    campaign.CellKey (technique, scenario, impairment, trial, seed).
//	    Completed runs land in a bounded LRU result cache; a cache hit
//	    returns bytes identical to a fresh run, which the repo's
//	    seed-determinism makes checkable. Identical runs already in flight
//	    are joined, never duplicated.
//	  - Schedule: admitted runs queue per client and a round-robin scheduler
//	    dispatches them onto the persistent campaign.Pool, so a heavy client
//	    cannot starve light ones; per-cell circuit breakers and the service
//	    failure budget are shared service-wide, not per request.
//	  - Stream: records flow back as NDJSON in trial order as runs complete,
//	    terminated by one aggregate frame.
package measured

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/telemetry"
)

// Defaults for the zero values of Config.
const (
	DefaultQueueMax          = 1024
	DefaultRatePerSec        = 64
	DefaultBurst             = 128
	DefaultCacheMax          = 65536
	DefaultMaxRunsPerRequest = 512
	DefaultWriteTimeout      = 30 * time.Second
	DefaultStreamBuf         = 64
)

// maxClients bounds the client-state table; past it, idle clients (no open
// requests, empty queue) are pruned oldest-first.
const maxClients = 4096

// Sentinel admission errors, mapped to HTTP statuses by the handler.
var (
	ErrDraining    = errors.New("measured: service draining")
	ErrDegraded    = errors.New("measured: service degraded: failure budget exceeded")
	ErrRateLimited = errors.New("measured: client rate limit exceeded")
	ErrQueueFull   = errors.New("measured: admission queue full")
	ErrStorage     = errors.New("measured: storage degraded")
)

// Config parameterizes New.
type Config struct {
	// Workers sizes the persistent campaign pool; 0 means GOMAXPROCS.
	Workers int
	// Timeout is the wall-clock budget per run (campaign semantics).
	Timeout time.Duration
	// Grace bounds how long in-flight runs keep executing once a shutdown
	// deadline has expired; 0 means campaign.DefaultGrace.
	Grace time.Duration
	// Retry is the per-probe retry policy threaded into every run.
	Retry core.RetryPolicy
	// QueueMax bounds admitted-but-unscheduled runs across all clients;
	// 0 means DefaultQueueMax.
	QueueMax int
	// RatePerSec refills each client's token bucket (one token per
	// request); 0 means DefaultRatePerSec, negative disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity; 0 means DefaultBurst.
	Burst int
	// CacheMax bounds the result cache (records); 0 means DefaultCacheMax
	// and a negative value disables result caching entirely (every request
	// is a fresh run; in-flight dedupe still applies).
	CacheMax int
	// MaxRunsPerRequest bounds how many runs one request may expand into;
	// 0 means DefaultMaxRunsPerRequest.
	MaxRunsPerRequest int
	// Breaker, when non-zero, installs service-wide per-cell circuit
	// breakers on the pool (shared across every client's requests).
	Breaker campaign.BreakerConfig
	// Budget, when set, is the service-wide failure budget: once more than
	// Budget.Fraction of completed runs (breaker skips excluded) have
	// errored, the service degrades — /readyz goes 503 and new requests
	// are rejected — until an operator restarts it. Per service, not per
	// request: one sick backend should stop admitting everyone's traffic.
	Budget *campaign.FailureBudget
	// Store, when set, makes the service crash-durable: every admitted run
	// is journaled (write-ahead) before it may execute, every completed run
	// is archived and then marked done, and sink failures degrade admission
	// (ErrStorage) instead of losing work. Open it with OpenStore before
	// New; call WarmStart and Replay after New, before serving; Close it
	// after Shutdown (the service does not own it).
	Store *Store
	// WriteTimeout bounds each response write to a client; a stalled NDJSON
	// reader whose socket stops accepting bytes is disconnected once a
	// write blocks past it (counted in measured_slow_client_drops_total),
	// without ever blocking a pool worker. 0 means DefaultWriteTimeout,
	// negative disables the deadline.
	WriteTimeout time.Duration
	// StreamBuf bounds the per-stream record buffer between run completion
	// and the client write loop. 0 means DefaultStreamBuf.
	StreamBuf int
	// Metrics receives the measured_* service metrics and the pool's
	// campaign_* metrics; nil disables telemetry.
	Metrics *telemetry.Registry
	// OnRecord, when set, receives every run the service actually executed
	// (cache hits and dedupe joins excluded — they re-serve an already
	// delivered result). The service-side archival stream hangs off this
	// hook: safemeasured -archive flattens each record into observations.
	// Called outside the service mutex, after the result is published.
	OnRecord func(campaign.RunRecord)
	// Execute overrides the pool's per-spec executor (tests only).
	Execute campaign.Executor
}

// Service is the long-running measurement service: one persistent pool,
// one result cache, one admission queue. Create with New, mount Handler
// on an HTTP server, and stop with Shutdown.
type Service struct {
	cfg          Config
	queueMax     int
	maxRuns      int
	rate         float64
	burst        float64
	writeTimeout time.Duration
	streamBuf    int
	pool         *campaign.Pool
	store        *Store
	reg          *telemetry.Registry

	mu       sync.Mutex
	cache    *resultCache
	inflight map[campaign.CellKey]*flight // owner flights not yet complete
	clients  map[string]*clientState
	ring     []*clientState // round-robin order
	cursor   int
	queued   int
	draining bool
	degraded bool
	// service failure budget (breaker skips excluded, like RunContext)
	budgetCompleted int
	budgetErrors    int

	wake      chan struct{}
	stop      chan struct{}
	schedDone chan struct{}
	sem       chan struct{} // bounds dispatched-but-unfinished pool.Do calls

	queueDepth    *telemetry.Gauge
	clientsActive *telemetry.Gauge
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	dedupJoins    *telemetry.Counter
	requests      *telemetry.Counter
	cacheSize     *telemetry.Gauge
	degradedG     *telemetry.Gauge
	budgetTrips   *telemetry.Counter
	slowDrops     *telemetry.Counter
	warmedC       *telemetry.Counter
	replayedC     *telemetry.Counter
}

// New builds the service and starts its pool and scheduler.
func New(cfg Config) *Service {
	queueMax := cfg.QueueMax
	if queueMax <= 0 {
		queueMax = DefaultQueueMax
	}
	maxRuns := cfg.MaxRunsPerRequest
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRunsPerRequest
	}
	rate := cfg.RatePerSec
	if rate == 0 {
		rate = DefaultRatePerSec
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	// 0 is "use the default"; negative is an explicit opt-out that leaves
	// the cache nil (admission and completion skip it). Before this split,
	// a non-positive bound reached newResultCache, whose eviction loop then
	// expelled every entry the moment it was inserted.
	cacheMax := cfg.CacheMax
	if cacheMax == 0 {
		cacheMax = DefaultCacheMax
	}
	var cache *resultCache
	if cacheMax > 0 {
		cache = newResultCache(cacheMax)
	}
	writeTimeout := cfg.WriteTimeout
	if writeTimeout == 0 {
		writeTimeout = DefaultWriteTimeout
	}
	streamBuf := cfg.StreamBuf
	if streamBuf <= 0 {
		streamBuf = DefaultStreamBuf
	}
	var breakers *campaign.BreakerSet
	if cfg.Breaker != (campaign.BreakerConfig{}) {
		breakers = campaign.NewBreakerSet(cfg.Breaker)
	}
	pool := campaign.NewPool(campaign.PoolConfig{
		Workers:  cfg.Workers,
		Timeout:  cfg.Timeout,
		Grace:    cfg.Grace,
		Retry:    cfg.Retry,
		Breakers: breakers,
		Metrics:  cfg.Metrics,
		Execute:  cfg.Execute,
	})
	s := &Service{
		cfg:          cfg,
		queueMax:     queueMax,
		maxRuns:      maxRuns,
		rate:         rate,
		burst:        float64(burst),
		writeTimeout: writeTimeout,
		streamBuf:    streamBuf,
		pool:         pool,
		store:        cfg.Store,
		reg:          cfg.Metrics,
		cache:        cache,
		inflight:     make(map[campaign.CellKey]*flight),
		clients:      make(map[string]*clientState),
		wake:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		schedDone:    make(chan struct{}),
		sem:          make(chan struct{}, pool.Workers()),

		// The ISSUE-named service metrics, resolved eagerly so they are
		// visible on /metrics from the first scrape, not the first event.
		queueDepth:    cfg.Metrics.Gauge("measured_queue_depth"),
		clientsActive: cfg.Metrics.Gauge("measured_clients_active"),
		cacheHits:     cfg.Metrics.Counter("measured_cache_hits_total"),
		cacheMisses:   cfg.Metrics.Counter("measured_cache_misses_total"),
		dedupJoins:    cfg.Metrics.Counter("measured_dedup_joins_total"),
		requests:      cfg.Metrics.Counter("measured_requests_total"),
		cacheSize:     cfg.Metrics.Gauge("measured_cache_size"),
		degradedG:     cfg.Metrics.Gauge("measured_degraded"),
		budgetTrips:   cfg.Metrics.Counter("measured_budget_trips_total"),
		slowDrops:     cfg.Metrics.Counter("measured_slow_client_drops_total"),
		warmedC:       cfg.Metrics.Counter("measured_cache_warmed_total"),
		replayedC:     cfg.Metrics.Counter("measured_replayed_total"),
	}
	go s.schedule()
	return s
}

// Request is one measurement request: a cell selection plus trial count and
// master seed. Technique/scenario/impairment accept the same names (and the
// "all" wildcard, and commas are NOT split — one value each) as cmd/campaign;
// seeds derive exactly as there, so a service response for (t, s, i, trials,
// seed) carries the same records a batch campaign with those flags writes.
type Request struct {
	Technique  string `json:"technique"`
	Scenario   string `json:"scenario"`
	Impairment string `json:"impairment,omitempty"`
	// Behavior names the adversarial censor-behavior preset ("" means the
	// faithful censor), same names as cmd/campaign's -censor-behavior.
	Behavior string `json:"behavior,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Client identifies the requester for rate limiting and fairness;
	// empty falls back to the X-Measured-Client header, then the remote
	// address.
	Client string `json:"client,omitempty"`
}

// Plan validates the request against the E11 applicability matrix and
// expands it into runs with deterministic seeds. Validation errors are
// user errors (HTTP 400): unknown names, inapplicable (technique,
// scenario) pairs, out-of-range trials, oversized expansions.
func (s *Service) Plan(req Request) (*campaign.Plan, error) {
	if req.Technique == "" {
		return nil, fmt.Errorf("measured: request needs a technique")
	}
	if req.Scenario == "" {
		return nil, fmt.Errorf("measured: request needs a scenario")
	}
	trials := req.Trials
	if trials == 0 {
		trials = 1
	}
	if trials < 0 {
		return nil, fmt.Errorf("measured: trials must be >= 1 (got %d)", trials)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	impairment := req.Impairment
	if impairment == "" {
		impairment = lab.ImpairmentNone
	}
	behavior := req.Behavior
	if behavior == "" {
		behavior = lab.BehaviorNone
	}
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Techniques:  []string{req.Technique},
		Scenarios:   []string{req.Scenario},
		Impairments: []string{impairment},
		Behaviors:   []string{behavior},
		Trials:      trials,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	if len(plan.Specs) > s.maxRuns {
		return nil, fmt.Errorf("measured: request expands to %d runs (max %d)",
			len(plan.Specs), s.maxRuns)
	}
	return plan, nil
}

// Ready implements the /readyz contract: nil while the pool is started and
// the admission queue is accepting; an error once draining, degraded by the
// failure budget, or degraded by a failing storage sink.
func (s *Service) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if s.degraded {
		return ErrDegraded
	}
	if s.store != nil {
		if err := s.store.Err(); err != nil {
			return err
		}
	}
	return nil
}

// WarmStart rebuilds the result cache from the store's archive, so a cell
// the previous process answered is a cache hit again — byte-identical, the
// cached line being re-marshaled from the exactly-round-tripping flat rows.
// It also reconciles the journal: a pending admit whose error-free result
// already sits in the archive (the crash hit between the archive write and
// the done marker) gets its missing done marker instead of a replay. Call
// after New and before Replay or serving traffic. Returns how many records
// were loaded.
func (s *Service) WarmStart() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	warmed := 0
	_, err := s.store.LoadArchive(func(rec campaign.RunRecord) {
		if rec.Error != "" {
			return // never cache failures; their admits stay pending
		}
		key := rec.CellKey()
		line, mErr := archival.MarshalLine(rec)
		if mErr != nil {
			return
		}
		s.mu.Lock()
		if s.cache != nil {
			s.cache.put(key, line, rec)
			s.cacheSize.Set(int64(s.cache.len()))
		}
		s.mu.Unlock()
		warmed++
		s.store.Reconcile(key)
	})
	s.warmedC.Add(int64(warmed))
	return warmed, err
}

// Replay re-admits the journal's pending runs — the requests a crash left
// admitted but unfinished — under their original clients, bypassing rate
// limits, the queue bound, and re-journaling (their admit frames survived
// the crash; that is the point). Cells whose results warm start already
// recovered are closed out without executing; everything else schedules
// and completes through the normal pipeline, so replayed runs archive,
// cache, and dedupe exactly like fresh ones. Returns how many runs were
// re-queued.
func (s *Service) Replay() int {
	if s.store == nil {
		return 0
	}
	entries := s.store.Pending()
	now := time.Now()
	n := 0
	s.mu.Lock()
	for _, e := range entries {
		key := e.Spec.CellKey()
		if s.cache != nil {
			if _, ok := s.cache.get(key); ok {
				s.store.Reconcile(key)
				continue
			}
		}
		if _, ok := s.inflight[key]; ok {
			continue // duplicate admit frames collapse onto one flight
		}
		fl := &flight{spec: e.Spec, owner: e.Client, done: make(chan struct{})}
		s.inflight[key] = fl
		c := s.clientLocked(e.Client, now)
		c.queue = append(c.queue, fl)
		s.queued++
		n++
	}
	if n > 0 {
		s.queueDepth.Set(int64(s.queued))
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
	s.replayedC.Add(int64(n))
	return n
}

// BeginDrain flips the service to draining: /readyz goes 503 and new
// requests are rejected, while admitted work keeps executing. Shutdown
// calls it; calling it earlier lets a load balancer bleed traffic first.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Shutdown drains and stops the service: admission closes, queued and
// in-flight runs complete while ctx lasts, then the scheduler and pool stop.
// When ctx expires first, the remaining runs are abandoned with explicit
// error records (campaign claim-gate semantics) and a non-nil error is
// returned — nil means a clean drain with no abandoned in-flight runs.
func (s *Service) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	// Wait for every outstanding flight (queued or dispatched) to complete.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var drainErr error
wait:
	for {
		s.mu.Lock()
		outstanding := len(s.inflight)
		s.mu.Unlock()
		if outstanding == 0 {
			break
		}
		select {
		case <-ctx.Done():
			drainErr = ctx.Err()
			break wait
		case <-tick.C:
		}
	}
	close(s.stop)
	<-s.schedDone
	if drainErr != nil {
		// Fail whatever never left the client queues explicitly, so joined
		// waiters see a record instead of blocking forever.
		for fl := s.nextFlight(); fl != nil; fl = s.nextFlight() {
			s.complete(fl, drainRecord(fl.spec, ErrDraining))
		}
	}
	if err := s.pool.Shutdown(ctx); err != nil {
		return err
	}
	// A flight leaves s.inflight before its archive write, so also wait for
	// every dispatched flight to finish completing (each holds a sem slot
	// until then): once Shutdown returns, closing the store loses nothing.
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
			continue
		default:
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("measured: drain incomplete: %w", ctx.Err())
		}
	}
	if drainErr != nil {
		return fmt.Errorf("measured: drain incomplete: %w", drainErr)
	}
	return nil
}

// drainRecord fills an explicit error record for a run the shutdown path
// could not execute.
func drainRecord(spec campaign.RunSpec, err error) campaign.RunRecord {
	imp := spec.Impairment
	if imp == lab.ImpairmentNone {
		imp = ""
	}
	bhv := spec.Behavior
	if bhv == lab.BehaviorNone {
		bhv = ""
	}
	rec := campaign.RunRecord{Scenario: spec.Scenario, Impairment: imp,
		Behavior: bhv, Trial: spec.Trial, Error: err.Error()}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	return rec
}
