package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/telemetry"
)

// stubRecord is a fast deterministic executor result for pool-mechanics
// tests that don't need a real lab run.
func stubRecord(spec RunSpec) RunRecord {
	rec := RunRecord{Scenario: spec.Scenario, Trial: spec.Trial}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	return rec
}

// TestRunContextCancelStopsDispatch pins the drain contract: after cancel,
// no new spec is dispatched, in-flight runs complete within the grace, and
// the partial result is plan-ordered with ctx.Err() reported.
func TestRunContextCancelStopsDispatch(t *testing.T) {
	p := smallPlan(t, 3) // 6 specs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	recs, err := RunContext(ctx, p, Options{
		Workers: 1,
		Grace:   -1, // drain fully
		Execute: func(spec RunSpec, claim func() bool) RunRecord {
			executed.Add(1)
			if spec.Index == 1 {
				cancel() // interrupt mid-campaign, from inside a run
			}
			rec := stubRecord(spec)
			claim()
			return rec
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With one worker, at most one spec (index 2) can have been handed to
	// the channel before the cancel was observed by the dispatcher.
	if n := executed.Load(); n < 2 || n > 3 {
		t.Fatalf("executed %d runs, want 2 or 3 (dispatch must stop at cancel)", n)
	}
	if int64(len(recs)) != executed.Load() {
		t.Fatalf("returned %d records for %d executed runs", len(recs), executed.Load())
	}
	for i, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("drained run %d carries error %q", i, rec.Error)
		}
		if rec.Technique != p.Specs[i].Technique || rec.Trial != p.Specs[i].Trial {
			t.Fatalf("partial records out of plan order at %d: %+v", i, rec)
		}
	}
	// A resume plan picks up exactly the missing specs.
	rest := p.Remaining(DoneSet(recs))
	if len(rest.Specs)+len(recs) != len(p.Specs) {
		t.Fatalf("resume plan has %d specs, records %d, plan %d",
			len(rest.Specs), len(recs), len(p.Specs))
	}
}

// TestRunContextGraceAbandonsStuckRuns: a run that ignores the cancel is
// abandoned once the drain grace expires, with an error record behind the
// same claim gate as the timeout path.
func TestRunContextGraceAbandonsStuckRuns(t *testing.T) {
	p := smallPlan(t, 4).Filter(func(s RunSpec) bool { return s.Index == 0 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	defer close(release)
	settled := make(chan bool, 1)
	recs, err := RunContext(ctx, p, Options{
		Workers: 1,
		Grace:   20 * time.Millisecond,
		Execute: func(spec RunSpec, claim func() bool) RunRecord {
			cancel()
			<-release // wedged through cancel and grace
			settled <- claim()
			return stubRecord(spec)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(recs) != 1 || !strings.Contains(recs[0].Error, "drain grace") {
		t.Fatalf("recs = %+v, want one grace-abandon error record", recs)
	}
	release <- struct{}{}
	if <-settled {
		t.Fatal("abandoned run won the claim after its grace-abandon record was emitted")
	}
}

// TestCallbackPanicDoesNotKillWorkers is the deadlock satellite: a panicking
// OnRecord callback used to kill its worker goroutine, which could strand
// the unbuffered spec feed forever. Now the panic is recovered, counted,
// and retained as the campaign error while every spec still executes.
func TestCallbackPanicDoesNotKillWorkers(t *testing.T) {
	p := smallPlan(t, 5) // 6 specs
	reg := telemetry.NewRegistry()
	var delivered atomic.Int64
	done := make(chan struct{})
	var recs []RunRecord
	var err error
	go func() {
		defer close(done)
		recs, err = Run(p, Options{
			Workers: 1, // a single worker: one unrecovered panic would deadlock dispatch
			Metrics: reg,
			Execute: func(spec RunSpec, claim func() bool) RunRecord {
				rec := stubRecord(spec)
				claim()
				return rec
			},
			OnRecord: func(rec RunRecord) {
				if delivered.Add(1) == 1 {
					panic("sink exploded")
				}
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign deadlocked after a callback panic")
	}
	if err == nil || !strings.Contains(err.Error(), "OnRecord callback panicked") {
		t.Fatalf("err = %v, want retained OnRecord panic", err)
	}
	if len(recs) != len(p.Specs) {
		t.Fatalf("records = %d, want %d (campaign must keep draining)", len(recs), len(p.Specs))
	}
	if got := delivered.Load(); got != int64(len(p.Specs)) {
		t.Fatalf("OnRecord fired %d times, want %d", got, len(p.Specs))
	}
	if got := reg.Counter("campaign_callback_panics_total").Value(); got != 1 {
		t.Fatalf("campaign_callback_panics_total = %d, want 1", got)
	}
}

// TestOnTracePanicRetained extends the guard to OnTrace, which runs inside
// the default (instrumented) executor: the run's record must survive even
// though its trace callback blew up.
func TestOnTracePanicRetained(t *testing.T) {
	p := smallPlan(t, 6).Filter(func(s RunSpec) bool { return s.Index < 2 })
	var traces atomic.Int64
	recs, err := Run(p, Options{
		Workers: 2,
		OnTrace: func(rt RunTrace) {
			if traces.Add(1) == 1 {
				panic("trace sink exploded")
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "OnTrace callback panicked") {
		t.Fatalf("err = %v, want retained OnTrace panic", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("record %d poisoned by its trace callback: %q", i, rec.Error)
		}
	}
}

// TestTimeoutLosesClaimRaceToRun covers the runGuarded race the timeout
// path must tolerate: the timer fires, but the run wins the claim before
// the pool's claim attempt. The pool must then take the run's real record —
// no duplicate, no spurious timeout error.
func TestTimeoutLosesClaimRaceToRun(t *testing.T) {
	p := smallPlan(t, 9).Filter(func(s RunSpec) bool { return s.Index == 0 })
	var mu sync.Mutex
	var seen []RunRecord
	recs, err := Run(p, Options{
		Workers: 1,
		Timeout: 25 * time.Millisecond,
		Execute: func(spec RunSpec, claim func() bool) RunRecord {
			if !claim() {
				t.Error("run lost the claim before the timeout could have fired")
			}
			// Hold the claimed run well past the timer so the pool's
			// timeout branch runs, loses claim(), and must wait for us.
			time.Sleep(100 * time.Millisecond)
			rec := stubRecord(spec)
			rec.Verdict = "accessible"
			return rec
		},
		OnRecord: func(rec RunRecord) {
			mu.Lock()
			seen = append(seen, rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if recs[0].Error != "" || recs[0].Verdict != "accessible" {
		t.Fatalf("claimed run's record was not taken: %+v", recs[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Error != "" {
		t.Fatalf("streamed records = %+v, want exactly the run's record", seen)
	}
}
