package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

// ErrPoolClosed is returned by Pool.Do when the pool has begun shutting
// down before the spec could be dispatched. A spec that WAS dispatched
// always yields a record, even through a shutdown (possibly an error record
// if the drain grace expired).
var ErrPoolClosed = errors.New("campaign: pool closed")

// errPoolDraining marks records of specs that were queued when shutdown
// abandoned the drain — explicit, like breaker skips, so callers can tell
// "never ran" from "ran and failed". It is also the cause Shutdown cancels
// the pool's context with, which is how a worker tells that abandonment
// from a canceled parent context: under the latter, every spec a worker
// takes still executes within the drain grace.
var errPoolDraining = errors.New("skipped: pool draining")

// PoolConfig parameterizes NewPool. RunContext builds its pool from the
// per-campaign Options; callback plumbing (OnRecord/OnTrace) is absent
// because the pool returns each record to its submitter, and RunContext
// guards its callbacks itself.
type PoolConfig struct {
	// Workers bounds concurrency; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the wall-clock budget per run; 0 means 60s, negative
	// disables it.
	Timeout time.Duration
	// Grace bounds how long an in-flight run may keep executing after
	// Shutdown's context expires (or RunContext's campaign is canceled)
	// before it is abandoned through the claim gate; 0 means DefaultGrace,
	// negative drains fully.
	Grace time.Duration
	// Retry is the per-probe retry policy threaded into every run.
	Retry core.RetryPolicy
	// Breakers, when set, gates every run through the shared per-cell
	// circuit breakers — service-wide, not per request, so a cell that
	// keeps failing is shed no matter which client asks for it.
	Breakers *BreakerSet
	// Metrics receives the pool counters (campaign_runs_inflight,
	// campaign_run_wall_seconds, campaign_run_virtual_ms, per-family run
	// counters); batch campaigns and the service publish them from this
	// one worker loop, so their metrics stay comparable.
	Metrics *telemetry.Registry
	// Execute overrides the per-spec executor (RunContext's guarded
	// default, chaos wrappers, tests); nil means the instrumented default
	// with staged-metrics claim semantics.
	Execute Executor
	// hedge enables hedged execution of stragglers. Only RunContext sets it,
	// from Options.Hedge; the service pool never hedges.
	hedge HedgeConfig
}

// poolJob is one submitted spec plus the channel its record returns on.
type poolJob struct {
	spec RunSpec
	done chan RunRecord // buffered(1): the worker's send never blocks
}

// Pool is the bounded worker pool that executes every run: per-run
// wall-clock timeout, panic recovery, the abandoned-run claim gate, staged
// telemetry merged only on claim, per-cell breakers and hedging when
// configured. Many submitters share its workers concurrently. The measured
// service keeps one Pool for its lifetime and schedules every client's runs
// onto it; RunContext builds one per plan and drives it until the plan is
// done. The pool only stops at Shutdown.
type Pool struct {
	cfg      PoolConfig
	timeout  time.Duration
	grace    time.Duration
	execute  Executor
	hedge    *hedgeRuntime
	jobs     chan poolJob
	ctx      context.Context
	cancel   context.CancelCauseFunc
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	submitWG sync.WaitGroup

	workers  int
	inflight *telemetry.Gauge
	wallHist *telemetry.Histogram
	virtHist *telemetry.Histogram
}

// NewPool starts the workers and returns the running pool.
func NewPool(cfg PoolConfig) *Pool { return newPool(context.Background(), cfg) }

// newPool is NewPool under a parent context: canceling parent gives
// in-flight runs the drain grace, as an expired Shutdown does, but every
// spec a worker has taken still executes.
func newPool(parent context.Context, cfg PoolConfig) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}
	grace := cfg.Grace
	if grace == 0 {
		grace = DefaultGrace
	}
	ctx, cancel := context.WithCancelCause(parent)
	p := &Pool{
		cfg:      cfg,
		timeout:  timeout,
		grace:    grace,
		jobs:     make(chan poolJob),
		ctx:      ctx,
		cancel:   cancel,
		workers:  workers,
		inflight: cfg.Metrics.Gauge("campaign_runs_inflight"),
	}
	wallReg := cfg.Metrics
	if wallReg == nil && cfg.hedge.Delay <= 0 && cfg.hedge.Quantile > 0 {
		// A quantile-derived hedge delay needs the wall histogram even
		// when the pool publishes no metrics, so give it a private one.
		wallReg = telemetry.NewRegistry()
	}
	p.wallHist = wallReg.HistogramBuckets("campaign_run_wall_seconds", 1e-3, 2, 24)
	p.virtHist = cfg.Metrics.HistogramBuckets("campaign_run_virtual_ms", 1, 2, 24)
	p.hedge = cfg.hedge.runtime(cfg.Metrics, p.wallHist)
	p.execute = cfg.Execute
	if p.execute == nil {
		// The default executor's callback guard is trivial here: a Pool has
		// no OnRecord/OnTrace callbacks to protect.
		p.execute = Options{Metrics: cfg.Metrics, Retry: cfg.Retry}.
			defaultExecutor(func(string, func()) {})
	}
	cfg.Breakers.instrument(cfg.Metrics)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// worker executes jobs until the jobs channel closes at Shutdown.
func (p *Pool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		var rec RunRecord
		allow, probe := p.cfg.Breakers.Allow(job.spec)
		switch {
		case errors.Is(context.Cause(p.ctx), errPoolDraining):
			// Shutdown abandoned the drain: fast-fail whatever is still
			// queued instead of burning the grace per job.
			rec = errorRecord(job.spec, errPoolDraining)
		case !allow:
			rec = errorRecord(job.spec, errBreakerOpen)
		default:
			p.inflight.Add(1)
			start := time.Now()
			rec = runGuarded(p.ctx, job.spec, p.execute, p.timeout, p.grace, p.hedge)
			p.wallHist.Observe(time.Since(start).Seconds())
			p.inflight.Add(-1)
			p.cfg.Breakers.Record(job.spec, rec.Error != "", probe)
		}
		accountRun(p.cfg.Metrics, job.spec, rec, p.virtHist)
		job.done <- rec
	}
}

// Do executes one spec on the pool and returns its record. It blocks until
// a worker is free, the run completes, ctx is canceled, or the pool shuts
// down; ctx cancellation only aborts the wait for a worker — once the spec
// is dispatched the run completes regardless (its record is still returned),
// so shared consumers like a result cache never lose work a client paid for.
func (p *Pool) Do(ctx context.Context, spec RunSpec) (RunRecord, error) {
	// Checked before the select, which picks at random between a ready
	// worker and a done ctx: a canceled submitter must never dispatch.
	if err := ctx.Err(); err != nil {
		return RunRecord{}, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return RunRecord{}, ErrPoolClosed
	}
	// Registered before the send so Shutdown cannot close the jobs channel
	// out from under a blocked sender.
	p.submitWG.Add(1)
	p.mu.Unlock()
	job := poolJob{spec: spec, done: make(chan RunRecord, 1)}
	select {
	case p.jobs <- job:
		p.submitWG.Done()
	case <-ctx.Done():
		p.submitWG.Done()
		return RunRecord{}, ctx.Err()
	case <-p.ctx.Done():
		p.submitWG.Done()
		return RunRecord{}, ErrPoolClosed
	}
	return <-job.done, nil
}

// Shutdown stops admitting new specs and drains: queued and in-flight runs
// complete normally while ctx lasts. When ctx expires first, in-flight runs
// are abandoned through the claim gate after the pool grace (their
// submitters get explicit error records, never silence) and ctx's error is
// returned — so a nil return is the "clean drain, nothing abandoned"
// signal the service smoke test asserts on.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		// In-flight Do calls either complete their send (a worker takes the
		// job) or bail via ctx/pool cancellation; either way submitWG drains
		// and the channel close below cannot race a send. If ctx expires
		// while senders are still parked behind busy workers, cancel the
		// pool so they bail with ErrPoolClosed instead of pinning Shutdown.
		waited := make(chan struct{})
		go func() { p.submitWG.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-ctx.Done():
			p.cancel(errPoolDraining)
			<-waited
		}
		close(p.jobs)
	}
	done := make(chan struct{})
	go func() { p.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.cancel(errPoolDraining) // abandon in-flight runs after the pool grace
		<-done
		return fmt.Errorf("campaign: pool shutdown: %w", ctx.Err())
	}
}

// accountRun publishes the shared per-run campaign counters for one
// completed record, from the pool worker that produced it.
func accountRun(m *telemetry.Registry, spec RunSpec, rec RunRecord, virtHist *telemetry.Histogram) {
	if m == nil {
		return
	}
	fam := familyOf(spec.Technique)
	m.Counter(telemetry.Labels("campaign_runs_total", "family", fam)).Inc()
	if rec.Error != "" {
		m.Counter("campaign_errors_total").Inc()
		return
	}
	virtHist.Observe(rec.ElapsedMS)
	if rec.Correct {
		m.Counter(telemetry.Labels("campaign_correct_total", "family", fam)).Inc()
	}
	if rec.Verdict == "inconclusive" {
		m.Counter(telemetry.Labels("campaign_inconclusive_total", "family", fam)).Inc()
	}
}
