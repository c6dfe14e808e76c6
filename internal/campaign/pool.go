package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

// DefaultGrace is how long RunContext lets in-flight runs keep going after
// the context is canceled before abandoning them, when Options.Grace is 0.
const DefaultGrace = 10 * time.Second

// Executor produces the record for one spec. The claim callback reports
// whether the run still owns its slot: it returns true exactly once, and
// false forever after the pool has abandoned the run (wall-clock timeout or
// drain-grace expiry) or a hedged sibling attempt completed first, in which
// case the executor must not publish any side effects (traces, shared
// metrics).
type Executor func(spec RunSpec, claim func() bool) RunRecord

// ErrBudgetExceeded is wrapped into RunContext's returned error when the
// campaign aborted because its failure budget was spent. The partial records
// are still returned plan-ordered, so the caller can flush them and print a
// -resume hint; test with errors.Is.
var ErrBudgetExceeded = errors.New("campaign: failure budget exceeded")

// DefaultBudgetMinRuns is how many runs must complete before the failure
// budget is enforced when FailureBudget.MinRuns is 0 — early enough to stop
// a campaign that is failing wholesale, late enough that one unlucky first
// run cannot abort everything.
const DefaultBudgetMinRuns = 8

// FailureBudget aborts a campaign whose error fraction exceeds what the
// operator budgeted for. The paper's scaling argument cuts both ways: a
// campaign grinding through a dead vantage or a tarpitting censor is pure
// exposure with no measurement value, so past the budget the right move is
// to stop, flush, and leave a resumable file.
type FailureBudget struct {
	// Fraction is the error fraction of completed runs allowed before the
	// campaign aborts. Breaker skips count toward neither side: a skipped
	// run spent no budget and took no risk.
	Fraction float64
	// MinRuns is how many runs must complete (skips excluded) before the
	// budget is enforced; 0 means DefaultBudgetMinRuns.
	MinRuns int
}

// Exceeded reports whether errs errored runs out of completed (breaker skips
// excluded from both) spend the budget: at least MinRuns have completed and
// the error fraction is above Fraction. RunContext and the measured service
// trip on this one rule.
func (b FailureBudget) Exceeded(completed, errs int) bool {
	minRuns := b.MinRuns
	if minRuns <= 0 {
		minRuns = DefaultBudgetMinRuns
	}
	return completed >= minRuns && float64(errs)/float64(completed) > b.Fraction
}

// budgetState tracks completed/errored runs and trips at most once.
type budgetState struct {
	mu        sync.Mutex
	budget    FailureBudget
	completed int
	errors    int
	tripped   bool
}

// observe folds one executed run in and reports whether this observation
// tripped the budget (true exactly once).
func (b *budgetState) observe(failed bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.completed++
	if failed {
		b.errors++
	}
	if b.tripped || !b.budget.Exceeded(b.completed, b.errors) {
		return false
	}
	b.tripped = true
	return true
}

// snapshot returns the counts at (or after) the trip for the error message.
func (b *budgetState) snapshot() (completed, errs int, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completed, b.errors, b.tripped
}

// DefaultHedgeMinSamples is how many wall-clock latency samples a
// quantile-derived hedge delay needs before it arms, when
// HedgeConfig.MinSamples is 0.
const DefaultHedgeMinSamples = 16

// HedgeConfig enables hedged execution for stragglers: when a run has been
// in flight longer than the hedge delay, a second attempt of the same spec
// launches and the first completion wins through the pool's claim gate. The
// loser's staged telemetry is discarded by the same gate that protects
// abandoned runs, and because runs are seed-deterministic the two attempts
// compute identical records — hedging changes tail latency, never results.
// The zero value disables hedging entirely.
type HedgeConfig struct {
	// Delay is a fixed hedge delay; takes precedence over Quantile.
	Delay time.Duration
	// Quantile, when Delay is 0, derives the delay from the campaign's live
	// wall-clock run-latency histogram (e.g. 0.95 hedges past the p95).
	// Until MinSamples runs have completed there is nothing to derive from
	// and runs are not hedged.
	Quantile float64
	// MinSamples gates the quantile mode; 0 means DefaultHedgeMinSamples.
	MinSamples int
}

// enabled reports whether any hedging mode is configured.
func (h HedgeConfig) enabled() bool { return h.Delay > 0 || h.Quantile > 0 }

// hedgeRuntime is a pool's hedging state: a delay oracle and the two
// counters.
type hedgeRuntime struct {
	delay    func() time.Duration // 0 means "do not hedge this run"
	launched *telemetry.Counter
	wins     *telemetry.Counter
}

// runtime builds the hedging state for a pool whose wall-clock run latencies
// land in wall; nil when hedging is off.
func (h HedgeConfig) runtime(m *telemetry.Registry, wall *telemetry.Histogram) *hedgeRuntime {
	if !h.enabled() {
		return nil
	}
	minSamples := h.MinSamples
	if minSamples <= 0 {
		minSamples = DefaultHedgeMinSamples
	}
	return &hedgeRuntime{
		launched: m.Counter("campaign_hedged_runs_total"),
		wins:     m.Counter("campaign_hedge_wins_total"),
		delay: func() time.Duration {
			if h.Delay > 0 {
				return h.Delay
			}
			if wall.Count() < int64(minSamples) {
				return 0
			}
			d := time.Duration(wall.Quantile(h.Quantile) * float64(time.Second))
			if d < time.Millisecond {
				d = time.Millisecond
			}
			return d
		},
	}
}

// DefaultStallFactor sets the stall watchdog threshold to this multiple of
// the per-run timeout when Options.StallAfter is 0.
const DefaultStallFactor = 3

// Options parameterizes Run. RunContext executes every run on a Pool built
// from Workers, Timeout, Grace, Retry, Breakers, Metrics, Hedge and the
// executor; the remaining fields are per-plan concerns the driver keeps.
type Options struct {
	// Workers bounds concurrency; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the wall-clock budget per run; a run exceeding it yields
	// an error record instead of stalling the campaign. 0 means 60s;
	// negative disables the timeout.
	Timeout time.Duration
	// Grace bounds how long an in-flight run may keep executing after the
	// context is canceled — or the failure budget aborts the campaign —
	// before the pool abandons it with an error record. 0 means
	// DefaultGrace; negative drains fully, however long runs take.
	Grace time.Duration
	// Retry is the per-probe retry policy threaded into every run; the zero
	// value means core.DefaultRetryPolicy(). core.SingleShot() reproduces
	// the pre-resilience scoring.
	Retry core.RetryPolicy
	// Breakers, when set, gates every run through a per-cell circuit
	// breaker: a cell whose runs keep failing is skipped (explicit
	// BreakerOpenError records, so resume and aggregates stay exact) until
	// a half-open probe succeeds. nil runs everything.
	Breakers *BreakerSet
	// Budget, when set, aborts the campaign once the error fraction of
	// completed runs exceeds Budget.Fraction: dispatch stops, in-flight
	// runs drain within Grace, and RunContext returns the plan-ordered
	// partial records with ErrBudgetExceeded. nil never aborts.
	Budget *FailureBudget
	// Hedge enables hedged execution for stragglers in the pool's workers;
	// the zero value is off and byte-identical to the unhedged pool.
	Hedge HedgeConfig
	// StallAfter arms the stall watchdog: if no run completes for this
	// long while the campaign is mid-flight, campaign_watchdog_stalls_total
	// increments and a goroutine dump is written to StallDump for
	// diagnosis. 0 derives DefaultStallFactor× the run timeout (when the
	// timeout is active); negative disables the watchdog.
	StallAfter time.Duration
	// StallDump receives the watchdog's goroutine dump; nil keeps just the
	// counter.
	StallDump io.Writer
	// OnRecord, when set, receives every record as its run completes —
	// typically an ObservationSink's Record. It may be called from multiple
	// workers at once; sinks in this package are safe for that. A panic in
	// the callback is recovered and retained as the campaign's error — it
	// never kills the worker (which would strand the spec feed).
	OnRecord func(RunRecord)
	// Metrics, when set, receives pool-level metrics (queue depth, run
	// latency, per-family success counters) and the per-run hot-path
	// counters. Each run stages its hot-path metrics in a private registry
	// and merges them in atomically on completion, so an abandoned
	// (timed-out) run never touches shared state; because every merge is an
	// integer sum, final values are independent of Workers. Only the
	// wall-clock histogram varies run to run.
	Metrics *telemetry.Registry
	// OnTrace, when set, enables per-run packet-path tracing (each run's
	// ring holds DefaultTraceCap events) and receives each run's event
	// stream as it completes. Like OnRecord it may be called from multiple
	// workers at once and is panic-guarded.
	OnTrace func(RunTrace)
	// Execute overrides the per-spec executor — chaos wrappers and tests
	// exercise the pool's recovery paths with it; nil means the
	// instrumented default (see Executor for the claim contract).
	Execute Executor
}

// familyOf groups techniques into the paper's families for the labeled
// campaign counters.
func familyOf(technique string) string {
	switch technique {
	case "overt-dns", "overt-http", "overt-tcp":
		return "overt"
	case "syn-scan", "spam", "ddos":
		return "mimicry"
	default:
		return "spoofed"
	}
}

// defaultExecutor builds the instrumented executor Run uses when
// Options.Execute is nil: per-run staged metrics, optional tracing, and the
// claim gate before any shared-state publication.
func (opts Options) defaultExecutor(guard func(kind string, f func())) Executor {
	return func(spec RunSpec, claim func() bool) RunRecord {
		// Hot-path metrics stage in a registry private to this run and
		// merge into the shared one only if the run still owns its slot:
		// a goroutine the pool abandoned at the timeout — or a hedged
		// attempt that lost the race — must not keep bumping campaign-wide
		// counters from the past.
		var staged *telemetry.Registry
		if opts.Metrics != nil {
			staged = telemetry.NewRegistry()
		}
		rec, events := ExecuteInstrumented(spec, ExecConfig{
			Metrics: staged,
			Trace:   opts.OnTrace != nil,
			Retry:   opts.Retry,
		})
		if !claim() {
			return rec // abandoned or out-hedged: another record went out
		}
		opts.Metrics.Merge(staged)
		if opts.OnTrace != nil {
			guard("OnTrace", func() {
				opts.OnTrace(RunTrace{
					Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
					Behavior:  recordBehavior(spec.Behavior),
					Technique: spec.Technique, Trial: spec.Trial, Seed: spec.Seed,
					Events: events,
				})
			})
		}
		return rec
	}
}

// Run shards the plan across a bounded worker pool and returns every record
// in plan order; it is RunContext without cancellation.
func Run(plan *Plan, opts Options) ([]RunRecord, error) {
	return RunContext(context.Background(), plan, opts)
}

// RunContext is Run with a lifecycle. It drives a Pool through the plan:
// one feeder per worker submits specs in plan order and collects their
// records. When ctx is canceled, dispatch stops, the pool's context cancels
// so in-flight runs drain within Options.Grace (then the pool abandons them
// with error records, behind the same claim gate as the timeout path), and
// RunContext returns the records of every run that was dispatched — still in
// plan order — together with ctx.Err(). A tripped failure budget takes the
// same drain path but returns ErrBudgetExceeded instead. Undispatched specs
// simply produce no record, which is exactly the shape -resume needs to
// finish the campaign later. A panic in OnRecord/OnTrace is recovered,
// counted, and retained as the returned error; the campaign keeps draining
// either way.
func RunContext(ctx context.Context, plan *Plan, opts Options) ([]RunRecord, error) {
	if plan == nil || len(plan.Specs) == 0 {
		return nil, fmt.Errorf("campaign: empty plan")
	}

	// Callback panics are recovered where the callback is invoked, counted,
	// and the first one is retained as the campaign error: a failing sink
	// must degrade to a reported error, never to a dead goroutine silently
	// stranding the rest of the plan.
	var cbMu sync.Mutex
	var cbErr error
	cbPanics := opts.Metrics.Counter("campaign_callback_panics_total")
	guard := func(kind string, f func()) {
		defer func() {
			if p := recover(); p != nil {
				cbPanics.Inc()
				cbMu.Lock()
				if cbErr == nil {
					cbErr = fmt.Errorf("campaign: %s callback panicked: %v", kind, p)
				}
				cbMu.Unlock()
			}
		}()
		f()
	}
	execute := opts.Execute
	if execute == nil {
		execute = opts.defaultExecutor(guard)
	}

	// The failure budget aborts through a context derived from the caller's,
	// and the pool's context derives from that: dispatch and the
	// drain-grace machinery see one cancellation signal whether the user
	// interrupted or the budget tripped; the two cases are told apart after
	// the pool drains.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	pool := newPool(runCtx, PoolConfig{
		Workers:  min(opts.Workers, len(plan.Specs)),
		Timeout:  opts.Timeout,
		Grace:    opts.Grace,
		Retry:    opts.Retry,
		Breakers: opts.Breakers,
		Metrics:  opts.Metrics,
		Execute:  execute,
		hedge:    opts.Hedge,
	})
	var budget *budgetState
	budgetTrips := opts.Metrics.Counter("campaign_budget_aborts_total")
	if opts.Budget != nil {
		budget = &budgetState{budget: *opts.Budget}
	}
	queued := opts.Metrics.Gauge("campaign_queue_depth")
	queued.Set(int64(len(plan.Specs)))

	var lastDone atomic.Int64
	lastDone.Store(time.Now().UnixNano())
	stallAfter := opts.StallAfter
	if stallAfter == 0 && pool.timeout > 0 {
		stallAfter = DefaultStallFactor * pool.timeout
	}
	if stallAfter > 0 {
		// Stopped before RunContext returns, so a caller-owned StallDump
		// writer is never written to after return.
		defer watchStalls(stallAfter, &lastDone,
			opts.Metrics.Counter("campaign_watchdog_stalls_total"), opts.StallDump)()
	}

	// Feeders take plan positions in order and stop at the first spec
	// Pool.Do refuses because runCtx is done (caller interrupt or budget
	// abort); a spec the pool accepted always yields a record. records and
	// dispatched are written per position here and read only after
	// wg.Wait.
	records := make([]RunRecord, len(plan.Specs))
	dispatched := make([]bool, len(plan.Specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(pool.Workers(), len(plan.Specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Specs) {
					return
				}
				queued.Add(-1)
				rec, err := pool.Do(runCtx, plan.Specs[i])
				if err != nil {
					return
				}
				if budget != nil && !IsBreakerSkip(rec) && budget.observe(rec.Error != "") {
					budgetTrips.Inc()
					abort()
				}
				lastDone.Store(time.Now().UnixNano())
				records[i] = rec
				dispatched[i] = true
				if opts.OnRecord != nil {
					guard("OnRecord", func() { opts.OnRecord(rec) })
				}
			}
		}()
	}
	wg.Wait()
	pool.Shutdown(context.Background()) // every worker is idle: returns at once

	cbMu.Lock()
	err := cbErr
	cbMu.Unlock()
	partialOf := func() []RunRecord {
		queued.Set(0) // undispatched specs are no longer pending
		partial := make([]RunRecord, 0, len(records))
		for i, rec := range records {
			if dispatched[i] {
				partial = append(partial, rec)
			}
		}
		return partial
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		partial := partialOf()
		if m := opts.Metrics; m != nil {
			m.Counter("campaign_cancel_total").Inc()
			m.Counter("campaign_canceled_specs_total").Add(int64(len(plan.Specs) - len(partial)))
		}
		return partial, errors.Join(ctxErr, err)
	}
	if budget != nil {
		if completed, errs, tripped := budget.snapshot(); tripped {
			return partialOf(), errors.Join(fmt.Errorf(
				"%w: %d of %d completed runs errored (budget %.3f); undispatched runs left for -resume",
				ErrBudgetExceeded, errs, completed, opts.Budget.Fraction), err)
		}
	}
	return records, err
}

// watchStalls runs the stall watchdog until the returned stop function is
// called, which returns once the watchdog has exited. The watchdog fires
// when no run has completed (lastDone, in Unix nanoseconds) for stallAfter —
// the signature of every worker wedged at once (or a deadlock in the pool),
// which per-run timeouts alone cannot distinguish from slow progress.
func watchStalls(stallAfter time.Duration, lastDone *atomic.Int64, stalls *telemetry.Counter, dump io.Writer) (stop func()) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		period := stallAfter / 8
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		fired := false
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			idle := time.Since(time.Unix(0, lastDone.Load()))
			if idle < stallAfter {
				fired = false // progress resumed: re-arm for the next episode
				continue
			}
			if fired {
				continue // one report per stall episode
			}
			fired = true
			stalls.Inc()
			if dump != nil {
				fmt.Fprintf(dump,
					"campaign: watchdog: no run completed for %v (threshold %v); goroutine dump:\n",
					idle.Round(time.Millisecond), stallAfter)
				_, _ = telemetry.GoroutineDump(dump)
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// attemptOut is one execution attempt's result, tagged with the attempt id
// so runGuarded can tell a hedge winner from a loser.
type attemptOut struct {
	rec RunRecord
	id  int32
}

// poolAttempt is the claim id runGuarded uses when IT claims a run — at the
// timeout or the drain-grace expiry — rather than any executing attempt.
const poolAttempt int32 = -1

// runGuarded executes one spec with panic recovery, a wall-clock timeout,
// cancellation-with-grace, and optional hedging. Each attempt proceeds in a
// fresh goroutine so a wedged simulator cannot occupy a worker forever; on
// timeout — or on context cancel once the drain grace expires — the
// goroutines are abandoned. When a hedge is armed and the first attempt is
// still in flight past the hedge delay, a second attempt of the same spec
// launches; all attempts and the abandon path share one claim token, so
// exactly one side owns the outcome: the claiming attempt's record is
// returned and every loser's staged telemetry is discarded by the gate it
// failed. The wall-clock timeout spans the whole run, hedged or not.
func runGuarded(ctx context.Context, spec RunSpec, execute Executor,
	timeout, grace time.Duration, hedge *hedgeRuntime) RunRecord {
	var claimed atomic.Bool
	var winner atomic.Int32
	claimFor := func(id int32) func() bool {
		return func() bool {
			if claimed.CompareAndSwap(false, true) {
				winner.Store(id)
				return true
			}
			return false
		}
	}
	done := make(chan attemptOut, 2) // buffered: losers send and exit, never leak
	launch := func(id int32) {
		claim := claimFor(id)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					// The buffered send cannot block: a panic means the
					// normal send never happened. A panicking attempt does
					// not claim, mirroring the unhedged pool: if nobody else
					// owns the run, its error record is what gets returned.
					done <- attemptOut{errorRecord(spec, fmt.Errorf("panic: %v", p)), id}
				}
			}()
			done <- attemptOut{execute(spec, claim), id}
		}()
	}
	launch(0)
	pending := 1
	poolClaim := claimFor(poolAttempt)

	// awaitWinner drains attempt results until the claiming attempt's
	// record arrives — the pool lost the claim race, so some attempt owns
	// the outcome and its send is guaranteed (claim happens inside the
	// attempt before it returns or panics).
	awaitWinner := func() RunRecord {
		for {
			out := <-done
			if out.id == winner.Load() {
				return out.rec
			}
		}
	}

	var timeoutC <-chan time.Time
	if timeout >= 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	var hedgeC <-chan time.Time
	if hedge != nil {
		if d := hedge.delay(); d > 0 {
			hedgeTimer := time.NewTimer(d)
			defer hedgeTimer.Stop()
			hedgeC = hedgeTimer.C
		}
	}
	ctxDone := ctx.Done()
	var graceC <-chan time.Time
	for {
		select {
		case out := <-done:
			pending--
			if claimed.Load() {
				if out.id != winner.Load() {
					continue // a loser finished first; the winner's send is coming
				}
				if out.id > 0 {
					hedge.wins.Inc()
				}
				return out.rec
			}
			// Nobody claimed (the attempt panicked before claiming, or the
			// executor never called claim). With another attempt still in
			// flight, wait for it; otherwise this record is the outcome,
			// exactly as in the unhedged pool.
			if pending == 0 {
				return out.rec
			}
		case <-hedgeC:
			hedgeC = nil
			hedge.launched.Inc()
			launch(1)
			pending++
		case <-timeoutC:
			if poolClaim() {
				return errorRecord(spec, fmt.Errorf("run exceeded %v wall-clock timeout", timeout))
			}
			// An attempt claimed completion between the timer firing and our
			// claim attempt; its side effects are published, take its record.
			return awaitWinner()
		case <-ctxDone:
			// Canceled: give the run the drain grace, then abandon it. A
			// negative grace drains fully (no deadline beyond the timeout).
			ctxDone = nil
			if grace >= 0 {
				graceTimer := time.NewTimer(grace)
				defer graceTimer.Stop()
				graceC = graceTimer.C
			}
		case <-graceC:
			if poolClaim() {
				return errorRecord(spec, fmt.Errorf(
					"campaign canceled: run abandoned after %v drain grace", grace))
			}
			return awaitWinner()
		}
	}
}
