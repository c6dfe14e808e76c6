package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/telemetry"
)

// stubExecutor returns a fast, claiming executor whose records carry the
// spec coordinates — enough for submitters to verify they got their own
// result back.
func stubExecutor() Executor {
	return func(spec RunSpec, claim func() bool) RunRecord {
		rec := RunRecord{Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
			Trial: spec.Trial, Correct: true}
		rec.Technique = spec.Technique
		rec.Seed = spec.Seed
		rec.Verdict = "censored"
		claim()
		return rec
	}
}

func poolSpec(i int) RunSpec {
	return RunSpec{Index: i, Technique: "overt-dns", Scenario: "dns-poison",
		Trial: i, Seed: int64(1000 + i)}
}

func TestPoolExecutesConcurrentSubmitters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(PoolConfig{Workers: 4, Metrics: reg, Execute: stubExecutor()})
	const n = 32
	recs := make([]RunRecord, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := p.Do(context.Background(), poolSpec(i))
			if err != nil {
				t.Errorf("Do(%d): %v", i, err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Trial != i || rec.Seed != int64(1000+i) || rec.Error != "" {
			t.Fatalf("submitter %d got someone else's record: %+v", i, rec)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	if got := reg.Counter(telemetry.Labels("campaign_runs_total", "family", "overt")).Value(); got != n {
		t.Fatalf("campaign_runs_total{family=overt} = %d, want %d", got, n)
	}
}

func TestPoolRejectsAfterShutdown(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, Execute: stubExecutor()})
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(context.Background(), poolSpec(0)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Shutdown = %v, want ErrPoolClosed", err)
	}
	// Shutdown is idempotent.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
}

func TestPoolDoHonorsSubmitterContext(t *testing.T) {
	block := make(chan struct{})
	exec := func(spec RunSpec, claim func() bool) RunRecord {
		<-block
		return stubExecutor()(spec, claim)
	}
	p := NewPool(PoolConfig{Workers: 1, Timeout: -1, Execute: exec})
	// Occupy the only worker.
	go p.Do(context.Background(), poolSpec(0))
	time.Sleep(10 * time.Millisecond)
	// A second submitter with a canceled context must not wait forever for
	// the busy worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Do(ctx, poolSpec(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with canceled ctx = %v, want context.Canceled", err)
	}
	close(block)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after unblocking = %v", err)
	}
}

// TestPoolDoNeverDispatchesCanceledSubmitter: with a worker idle, Do's
// select could pick the send as often as ctx.Done(), so a submitter whose
// context was already canceled still ran about half the time.
func TestPoolDoNeverDispatchesCanceledSubmitter(t *testing.T) {
	var executed atomic.Int64
	p := NewPool(PoolConfig{Workers: 1, Execute: func(spec RunSpec, claim func() bool) RunRecord {
		executed.Add(1)
		return stubExecutor()(spec, claim)
	}})
	defer p.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if _, err := p.Do(ctx, poolSpec(i)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Do %d with canceled ctx = %v, want context.Canceled", i, err)
		}
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("pool executed %d specs submitted with a canceled context", n)
	}
}

// TestPoolCanceledParentExecutesTakenSpecs pins what RunContext relies on:
// under a canceled parent context, a spec that reaches a worker still
// executes (within the drain grace) and never comes back as a "skipped:
// pool draining" record; only an expired Shutdown fast-fails specs.
func TestPoolCanceledParentExecutesTakenSpecs(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	p := newPool(parent, PoolConfig{Workers: 1, Execute: func(spec RunSpec, claim func() bool) RunRecord {
		executed.Add(1)
		return stubExecutor()(spec, claim)
	}})
	defer p.Shutdown(context.Background())
	// Do's select picks at random between the idle worker and the pool's
	// done context, so keep submitting until some specs got through.
	var taken int64
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; taken < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions reached the worker", taken, i)
		}
		rec, err := p.Do(context.Background(), poolSpec(i))
		if err != nil {
			continue // refused before any worker took it
		}
		taken++
		if rec.Error != "" {
			t.Fatalf("taken spec %d came back unexecuted: %q", i, rec.Error)
		}
	}
	if n := executed.Load(); n != taken {
		t.Fatalf("executed %d of %d taken specs", n, taken)
	}
}

func TestPoolShutdownAbandonsOnExpiredContext(t *testing.T) {
	block := make(chan struct{})
	exec := func(spec RunSpec, claim func() bool) RunRecord {
		<-block
		return stubExecutor()(spec, claim)
	}
	p := NewPool(PoolConfig{Workers: 1, Timeout: -1, Grace: 10 * time.Millisecond, Execute: exec})
	recCh := make(chan RunRecord, 1)
	go func() {
		rec, err := p.Do(context.Background(), poolSpec(0))
		if err != nil {
			t.Errorf("dispatched Do returned error %v, want a record", err)
		}
		recCh <- rec
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick up the job
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with a wedged run returned nil, want deadline error")
	}
	select {
	case rec := <-recCh:
		// A dispatched spec always yields a record — here the explicit
		// abandoned-run error record, never silence.
		if rec.Error == "" {
			t.Fatalf("abandoned run produced a success record: %+v", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submitter never got a record for the abandoned run")
	}
	close(block) // release the wedged goroutine
}

func TestPoolBreakerShedsFailingCell(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(PoolConfig{
		Workers:  1,
		Metrics:  reg,
		Breakers: NewBreakerSet(BreakerConfig{Consecutive: 2}),
		Execute:  failingStub(),
	})
	defer p.Shutdown(context.Background())
	var skips int
	for i := 0; i < 6; i++ {
		rec, err := p.Do(context.Background(), poolSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		if IsBreakerSkip(rec) {
			skips++
		}
	}
	if skips == 0 {
		t.Fatal("breaker never opened after consecutive failures")
	}
}
