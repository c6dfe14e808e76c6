package measured

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/telemetry"
)

// trialSpec builds a distinct run spec per trial (same cell family, different
// deterministic identity).
func trialSpec(trial int) campaign.RunSpec {
	return campaign.RunSpec{Technique: "overt-dns", Scenario: "dns-poison",
		Trial: trial, Seed: int64(100 + trial)}
}

// stubExec is a fast executor returning a success record for every spec.
func stubExec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	rec := campaign.RunRecord{Scenario: spec.Scenario, Trial: spec.Trial, Correct: true}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	rec.Verdict = "censored"
	claim()
	return rec
}

// failExec fails every run.
func failExec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	rec := campaign.RunRecord{Scenario: spec.Scenario, Trial: spec.Trial,
		Error: "stub: vantage dead"}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	claim()
	return rec
}

func httpGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestHandlerValidation(t *testing.T) {
	svc := New(Config{Workers: 1, Execute: stubExec})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/measure?scenario=dns-poison", http.StatusBadRequest}, // no technique
		{"/measure?technique=overt-dns", http.StatusBadRequest}, // no scenario
		{"/measure?technique=bogus&scenario=open", http.StatusBadRequest},
		{"/measure?technique=overt-dns&scenario=dns-poison&trials=-2", http.StatusBadRequest},
		{"/measure?technique=overt-dns&scenario=dns-poison&trials=zz", http.StatusBadRequest},
		// Inapplicable per the E11 matrix: spoofed-syn cannot see dns-poison.
		{"/measure?technique=spoofed-syn&scenario=dns-poison", http.StatusBadRequest},
		{"/measure?technique=overt-dns&scenario=dns-poison&trials=1", http.StatusOK},
	} {
		code, body := httpGet(t, srv, tc.path)
		if code != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, code, strings.TrimSpace(body), tc.want)
		}
	}

	// POST with unknown fields is rejected.
	resp, err := srv.Client().Post(srv.URL+"/measure", "application/json",
		strings.NewReader(`{"technique":"overt-dns","scenario":"dns-poison","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with unknown field = %d, want 400", resp.StatusCode)
	}
}

func TestRequestExpansionBounded(t *testing.T) {
	svc := New(Config{Workers: 1, MaxRunsPerRequest: 4, Execute: stubExec})
	defer svc.Shutdown(context.Background())
	if _, err := svc.Plan(Request{Technique: "overt-dns", Scenario: "dns-poison", Trials: 5}); err == nil {
		t.Fatal("oversized expansion passed Plan")
	}
	if _, err := svc.Plan(Request{Technique: "overt-dns", Scenario: "dns-poison", Trials: 4}); err != nil {
		t.Fatalf("in-bounds expansion rejected: %v", err)
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	block := make(chan struct{})
	exec := func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		<-block
		return stubExec(spec, claim)
	}
	svc := New(Config{Workers: 1, QueueMax: 2, Metrics: reg, Execute: exec})
	defer func() {
		close(block)
		svc.Shutdown(context.Background())
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// One request expanding past QueueMax is rejected whole — all-or-nothing
	// admission, no partial queue occupancy.
	resp, err := srv.Client().Get(srv.URL + "/measure?technique=overt-dns&scenario=dns-poison&trials=3&client=big")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "queue_full") {
		t.Fatalf("oversized request = %d %s, want 503 queue_full", resp.StatusCode, body)
	}
	if got := reg.Counter(telemetry.Labels("measured_rejected_total", "reason", "queue_full")).Value(); got != 1 {
		t.Fatalf("measured_rejected_total{reason=queue_full} = %d, want 1", got)
	}
	svc.mu.Lock()
	queued, inflight := svc.queued, len(svc.inflight)
	svc.mu.Unlock()
	if queued != 0 || inflight != 0 {
		t.Fatalf("rejected request left state behind: queued=%d inflight=%d", queued, inflight)
	}
}

func TestRateLimitPerClient(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Workers: 1, RatePerSec: 0.0001, Burst: 1, Metrics: reg, Execute: stubExec})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if code, _ := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&client=greedy"); code != http.StatusOK {
		t.Fatalf("first request = %d, want 200", code)
	}
	code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&seed=2&client=greedy")
	if code != http.StatusTooManyRequests || !strings.Contains(body, "rate_limited") {
		t.Fatalf("second request = %d %s, want 429 rate_limited", code, body)
	}
	// Other clients have their own bucket.
	if code, _ := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&seed=2&client=patient"); code != http.StatusOK {
		t.Fatalf("other client = %d, want 200", code)
	}
	if got := reg.Counter(telemetry.Labels("measured_rejected_total", "reason", "rate_limited")).Value(); got != 1 {
		t.Fatalf("measured_rejected_total{reason=rate_limited} = %d, want 1", got)
	}
}

func TestDrainingRejectsAndReadyz(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Workers: 1, Metrics: reg, Execute: stubExec})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	tsrv := httptest.NewServer(telemetry.Handler(reg, nil, svc.Ready))
	defer tsrv.Close()

	if err := svc.Ready(); err != nil {
		t.Fatalf("fresh service not ready: %v", err)
	}
	resp, _ := tsrv.Client().Get(tsrv.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", resp.StatusCode)
	}

	svc.BeginDrain()
	if !errors.Is(svc.Ready(), ErrDraining) {
		t.Fatalf("Ready() while draining = %v, want ErrDraining", svc.Ready())
	}
	code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("request while draining = %d %s, want 503 draining", code, body)
	}
	resp, _ = tsrv.Client().Get(tsrv.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown = %v", err)
	}
}

func TestFailureBudgetDegradesService(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{
		Workers: 1,
		Metrics: reg,
		Budget:  &campaign.FailureBudget{Fraction: 0.5, MinRuns: 2},
		Execute: failExec,
	})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Two failing runs trip the 50% budget at MinRuns=2.
	httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&trials=2&client=a")
	deadline := time.Now().Add(2 * time.Second)
	for svc.Ready() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(svc.Ready(), ErrDegraded) {
		t.Fatalf("Ready() after budget trip = %v, want ErrDegraded", svc.Ready())
	}
	code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&seed=9&client=b")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("request while degraded = %d %s, want 503 degraded", code, body)
	}
	if got := reg.Counter("measured_budget_trips_total").Value(); got != 1 {
		t.Fatalf("measured_budget_trips_total = %d, want 1", got)
	}
	if got := reg.Gauge("measured_degraded").Value(); got != 1 {
		t.Fatalf("measured_degraded = %d, want 1", got)
	}
}

func TestErrorRecordsNeverCached(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Workers: 1, Metrics: reg, Execute: failExec})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	a := fetchBody(t, srv, "technique=overt-dns&scenario=dns-poison&client=x")
	b := fetchBody(t, srv, "technique=overt-dns&scenario=dns-poison&client=x")
	if !strings.Contains(string(a), "vantage dead") || !bytes.Equal(a, b) {
		t.Fatalf("error responses should re-run and match:\na: %s\nb: %s", a, b)
	}
	if got := reg.Counter("measured_cache_hits_total").Value(); got != 0 {
		t.Fatalf("error record was served from cache (%d hits)", got)
	}
	if got := reg.Counter("measured_cache_misses_total").Value(); got != 2 {
		t.Fatalf("misses = %d, want 2 (second request re-ran)", got)
	}
	if got := reg.Gauge("measured_cache_size").Value(); got != 0 {
		t.Fatalf("cache size = %d, want 0 (errors never cached)", got)
	}
}

// TestDedupJoinsInFlight: identical runs already executing are joined, never
// duplicated — the joiner gets the same bytes without a second run.
func TestDedupJoinsInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	var runs int
	var mu sync.Mutex
	exec := func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		mu.Lock()
		runs++
		mu.Unlock()
		entered <- struct{}{}
		<-block
		return stubExec(spec, claim)
	}
	svc := New(Config{Workers: 2, Metrics: reg, Execute: exec})
	defer svc.Shutdown(context.Background())

	spec := trialSpec(1)
	pa, err := svc.Admit("alice", []campaign.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Release("alice")
	<-entered // alice's run is now in flight
	pb, err := svc.Admit("bob", []campaign.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Release("bob")
	if got := reg.Counter("measured_dedup_joins_total").Value(); got != 1 {
		t.Fatalf("dedup joins = %d, want 1", got)
	}
	close(block)
	la, _, err := pa[0].wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lb, _, err := pb[0].wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(la, lb) {
		t.Fatalf("joined flight returned different bytes: %s vs %s", la, lb)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("joined cell executed %d times, want 1", runs)
	}
}

// TestRoundRobinFairness: with one worker and two clients, a deep queue from
// one client cannot starve the other — execution alternates.
func TestRoundRobinFairness(t *testing.T) {
	entered := make(chan string)
	step := make(chan struct{})
	exec := func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		entered <- spec.Technique // overt-dns = alice, spam = bob
		<-step
		return stubExec(spec, claim)
	}
	svc := New(Config{Workers: 1, Execute: exec})

	aliceSpecs := make([]campaign.RunSpec, 4)
	bobSpecs := make([]campaign.RunSpec, 4)
	for i := range aliceSpecs {
		aliceSpecs[i] = campaign.RunSpec{Technique: "overt-dns", Scenario: "dns-poison",
			Trial: i, Seed: int64(10 + i)}
		bobSpecs[i] = campaign.RunSpec{Technique: "spam", Scenario: "dns-poison",
			Trial: i, Seed: int64(20 + i)}
	}
	// Hold the scheduler's only dispatch slot so both admissions land before
	// anything executes, making the pick order deterministic.
	svc.sem <- struct{}{}
	pa, err := svc.Admit("alice", aliceSpecs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Release("alice")
	pb, err := svc.Admit("bob", bobSpecs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Release("bob")
	<-svc.sem // release the slot; dispatching starts now

	order := []string{<-entered}
	for len(order) < 8 {
		step <- struct{}{} // finish the current run
		order = append(order, <-entered)
	}
	step <- struct{}{}
	for _, p := range append(pa, pb...) {
		if _, _, err := p.wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Depending on whether the scheduler pre-claimed alice's second run
	// before bob's admission, the order is [a b a b a b a b] or
	// [a a b a b a b b]; either way the round-robin invariants hold: bob's
	// first run starts within the first three picks and no client ever gets
	// more than two consecutive picks — a deep queue cannot starve anyone.
	firstBob := -1
	streak, maxStreak := 0, 0
	for i, tech := range order {
		if tech == "spam" && firstBob < 0 {
			firstBob = i
		}
		if i > 0 && order[i-1] == tech {
			streak++
		} else {
			streak = 1
		}
		if streak > maxStreak {
			maxStreak = streak
		}
	}
	if firstBob < 0 || firstBob > 2 || maxStreak > 2 {
		t.Fatalf("execution order %v not round-robin (bob first at %d, max streak %d)",
			order, firstBob, maxStreak)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
}

// TestShutdownDrainsQueuedWork: queued flights complete (and are returned to
// waiters) during a clean shutdown.
func TestShutdownDrainsQueuedWork(t *testing.T) {
	svc := New(Config{Workers: 2, Execute: stubExec})
	specs := []campaign.RunSpec{trialSpec(1), trialSpec(2), trialSpec(3)}
	ps, err := svc.Admit("c", specs)
	if err != nil {
		t.Fatal(err)
	}
	svc.Release("c")
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown with queued work = %v", err)
	}
	for i, p := range ps {
		line, rec, err := p.wait(context.Background())
		if err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if rec.Error != "" || len(line) == 0 {
			t.Fatalf("queued run %d failed through drain: %+v", i, rec)
		}
	}
	// Admission after shutdown is rejected.
	if _, err := svc.Admit("c", specs[:1]); !errors.Is(err, ErrDraining) {
		t.Fatalf("Admit after Shutdown = %v, want ErrDraining", err)
	}
}

// TestExpiredShutdownFailsExplicitly: a drain that cannot finish fails the
// stragglers with explicit error records — waiters never block forever.
func TestExpiredShutdownFailsExplicitly(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	exec := func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		entered <- struct{}{}
		<-block
		return stubExec(spec, claim)
	}
	svc := New(Config{Workers: 1, Grace: 10 * time.Millisecond, Timeout: -1, Execute: exec})
	ps, err := svc.Admit("c", []campaign.RunSpec{trialSpec(1), trialSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Release("c")
	<-entered // first run wedged on the worker; second still queued
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with wedged runs returned nil, want error")
	}
	for i, p := range ps {
		wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, rec, err := p.wait(wctx)
		wcancel()
		if err != nil {
			t.Fatalf("pending %d blocked after failed drain: %v", i, err)
		}
		if rec.Error == "" {
			t.Fatalf("pending %d got a success record through an abandoned drain", i)
		}
	}
	close(block)
}
