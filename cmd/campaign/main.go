// Command campaign runs measurement campaigns: a technique × scenario ×
// impairment × trial matrix sharded across a worker pool, streamed to a
// flat observation archive as runs complete, and aggregated into
// per-technique, per-scenario, and per-impairment accuracy, MVR-evasion,
// and analyst-flag tables.
//
// Usage:
//
//	campaign -techniques all -scenarios keyword-rst,dns-poison,blackhole \
//	         -trials 20 -workers 8 -seed 1 -out results.jsonl
//	campaign -techniques spam,spoofed-dns -scenarios dns-poison -trials 50
//	campaign -impairments all -trials 10    # sweep every link impairment
//	campaign -impairments lossy20 -retries 1  # single-shot scoring ablation
//	campaign -censor-behavior all -trials 10  # sweep every adversarial censor
//	campaign -censor-behavior intermittent -corroborate 5  # k-of-n hardening
//	campaign -resume -out results.jsonl     # finish an interrupted campaign
//	campaign -trials 5 -metrics-addr :9090 -trace -out results.bin
//	campaign -list
//
// -out is the campaign's one durable file: flat archival observations, one
// self-describing row per sub-measurement, analyzable with measanalyze — in
// JSONL, or in the compact binary encoding when the path ends in .bin or
// .smoa. Each run's rows go down as one contiguous group. -trace adds every
// run's packet-path events (probe sent, censor alert, MVR log/discard, TTL
// expiry, RST injection) to the same file as trace rows with virtual-time
// timestamps, inside the run's group. -metrics-addr serves live
// Prometheus-style counters on /metrics and a JSON view of per-cell
// campaign completion on /progress.
//
// Every run seed derives from -seed and the run's coordinates, so repeating
// a campaign with a different -workers value yields identical rows (the
// file's group order is completion order; sort the rows to compare).
//
// Interruption is a first-class outcome, not a crash: the first SIGINT or
// SIGTERM stops dispatching, drains in-flight runs within -grace, flushes
// the archive, prints the partial summary, and exits 130 with a -resume
// hint; a second signal flushes best-effort and exits immediately.
// -sync-every N bounds what a hard kill can lose to N rows. -resume repairs
// a torn trailing row, always drops the file's final run group (a kill may
// have cut it short; its seed makes the re-run byte-identical), skips the
// error-free runs that remain, and appends the rest — so no partial run
// survives a resume.
//
// Supervision: -breaker N trips a per-cell circuit breaker after N
// consecutive failed runs (skipped runs are explicit records a later
// -resume re-runs); -fail-budget F aborts the whole campaign once more than
// fraction F of completed runs are errors, flushing the archive and exiting
// 3 with a -resume hint; -hedge launches a second attempt for straggling
// runs (a duration, or pNN to derive the delay from live run latency). A
// stall watchdog dumps goroutines to stderr if no run completes for 3x
// -timeout.
//
// Exit codes: 0 success, 1 run errors or internal failure, 2 usage,
// 3 failure-budget abort (resumable), 130 interrupted (resumable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/telemetry"
)

// exitInterrupted is the exit code of a drained, resumable interrupt — the
// conventional 128+SIGINT, kept fixed for both signals so scripts can test
// for "partial but valid output" with one code.
const exitInterrupted = 130

// exitBudgetAbort is the exit code of a failure-budget abort: like 130 the
// output file is a valid, resumable partial — but the cause is the campaign
// itself being too sick to continue, not an operator signal, so scripts can
// tell the two apart.
const exitBudgetAbort = 3

// poolRunning backs /readyz when -metrics-addr is set: true exactly while
// the campaign pool is dispatching runs.
var poolRunning atomic.Bool

func main() {
	techniques := flag.String("techniques", "all", "comma-separated technique names, or all")
	scenarios := flag.String("scenarios", "all", "comma-separated scenario names, or all")
	impairments := flag.String("impairments", "none", "comma-separated link-impairment presets, or all")
	behaviors := flag.String("censor-behavior", "none", "comma-separated adversarial censor-behavior presets, or all")
	retries := flag.Int("retries", core.DefaultMaxAttempts, "max probe attempts per run (1 = single-shot legacy scoring)")
	corroborate := flag.Int("corroborate", 0, "cross-trial corroboration: run each probe N times and require k-of-n verdict agreement (0 disables; >= 2 enables)")
	trials := flag.Int("trials", 1, "trials per technique x scenario x impairment cell")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	seed := flag.Int64("seed", 1, "campaign master seed")
	out := flag.String("out", "", "observation archive path: JSONL, or binary for a .bin/.smoa extension (- for JSONL on stdout; empty writes no file)")
	timeout := flag.Duration("timeout", 60*time.Second, "wall-clock budget per run")
	grace := flag.Duration("grace", 10*time.Second, "drain budget for in-flight runs after an interrupt (negative waits forever)")
	syncEvery := flag.Int("sync-every", 64, "flush+fsync the archive every N rows so a hard crash loses at most N (0 buffers until exit)")
	breakerN := flag.Int("breaker", 0, "per-cell circuit breaker: open after N consecutive failed runs, skip during cooldown, half-open probe (0 disables)")
	failBudget := flag.Float64("fail-budget", -1, "abort the campaign when more than this fraction of completed runs are errors (negative disables)")
	hedgeSpec := flag.String("hedge", "", "hedge straggling runs: a duration (e.g. 500ms) or pNN (e.g. p95) derived from live run latency (empty disables)")
	resume := flag.Bool("resume", false, "drop -out's final run group, skip the error-free runs left in it, and append the rest")
	list := flag.Bool("list", false, "list scenarios and techniques, then exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /progress, and /debug/pprof on this address (e.g. :9090)")
	profContention := flag.Bool("pprof-contention", false, "record mutex and block profiles (served under -metrics-addr's /debug/pprof; costs a little on every contended lock)")
	trace := flag.Bool("trace", false, "add each run's packet-path trace events to -out as trace rows")
	flag.Parse()

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range lab.Scenarios() {
			truth := "accessible"
			if sc.Censored {
				truth = "censored"
			}
			fmt.Printf("  %-12s %-10s %s\n", sc.Name, truth, sc.Summary)
		}
		fmt.Println("techniques:")
		for _, name := range core.Names() {
			kind := "overt baseline"
			if t, _ := core.ByName(name); core.Stealth(t) {
				kind = "stealth"
			}
			fmt.Printf("  %-14s %s\n", name, kind)
		}
		fmt.Println("impairments:")
		for _, p := range lab.Impairments() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Summary)
		}
		fmt.Println("censor behaviors:")
		for _, p := range lab.Behaviors() {
			fmt.Printf("  %-17s %s\n", p.Name, p.Summary)
		}
		return
	}

	if *workers < 1 {
		*workers = 1
	}
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "campaign: -trials must be >= 1 (got %d)\n", *trials)
		os.Exit(2)
	}
	if *trace && *out == "" {
		fmt.Fprintln(os.Stderr, "campaign: -trace adds trace rows to -out; set -out")
		os.Exit(2)
	}
	if *retries < 1 {
		fmt.Fprintf(os.Stderr, "campaign: -retries must be >= 1 (got %d)\n", *retries)
		os.Exit(2)
	}
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Techniques:  splitCSV(*techniques),
		Scenarios:   splitCSV(*scenarios),
		Impairments: splitCSV(*impairments),
		Behaviors:   splitCSV(*behaviors),
		Trials:      *trials,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	planned := len(plan.Specs)

	if *corroborate == 1 || *corroborate < 0 {
		fmt.Fprintf(os.Stderr, "campaign: -corroborate must be 0 (off) or >= 2 (got %d)\n", *corroborate)
		os.Exit(2)
	}
	retry := core.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	retry.Corroborate = *corroborate
	opts := campaign.Options{Workers: *workers, Timeout: *timeout, Grace: *grace, Retry: retry,
		StallDump: os.Stderr}
	var breakers *campaign.BreakerSet
	if *breakerN > 0 {
		breakers = campaign.NewBreakerSet(campaign.BreakerConfig{Consecutive: *breakerN})
		opts.Breakers = breakers
	}
	if *failBudget >= 0 {
		opts.Budget = &campaign.FailureBudget{Fraction: *failBudget}
	}
	if *hedgeSpec != "" {
		hedge, err := parseHedge(*hedgeSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Hedge = hedge
	}
	var sink *campaign.ObservationSink
	var outFile *os.File
	switch {
	case *out == "-":
		sink = campaign.NewObservationSink(archival.NewJSONLWriter(os.Stdout))
	case *out != "":
		var done map[campaign.DoneKey]bool
		sink, outFile, done, err = campaign.OpenArchive(*out, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign: -out:", err)
			os.Exit(1)
		}
		defer outFile.Close() // early returns; the success path checks Close
		if *resume {
			plan = plan.Remaining(done)
			if len(plan.Specs) == 0 {
				fmt.Fprintf(os.Stderr, "campaign: all %d planned runs already in %s\n", planned, *out)
				return
			}
		}
	}
	// Telemetry: a registry and a progress tracker for /progress when
	// -metrics-addr is set. The progress tracker is built after -resume filtering so its planned
	// totals reflect what this invocation will actually run.
	var reg *telemetry.Registry
	var prog *campaign.Progress
	shutdownMetrics := func() {}
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		prog = campaign.NewProgress(plan)
		prog.Breakers(breakers)
		if *profContention {
			// 1-in-5 mutex events, blocking >= 100µs: cheap enough to leave
			// on for a whole campaign, detailed enough to rank hot locks.
			telemetry.EnableContentionProfiling(5, 100_000)
		}
		// /readyz mirrors the pool lifecycle: ready while the campaign is
		// dispatching runs, not before the pool starts nor once it drains —
		// the same contract safemeasured serves, so probes work on both.
		srv, addr, err := telemetry.Serve(*metricsAddr, reg, func() any { return prog.Snapshot() },
			func() error {
				if !poolRunning.Load() {
					return errors.New("campaign pool not running")
				}
				return nil
			},
			func(err error) { fmt.Fprintln(os.Stderr, "campaign: metrics server:", err) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign: metrics server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "campaign: serving /metrics and /progress on %s\n", addr)
		// Shut the server down when the campaign ends (or is interrupted):
		// the port releases deterministically and in-flight scrapes finish
		// instead of dying mid-body with the process.
		shutdownMetrics = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: metrics server shutdown:", err)
			}
		}
	}
	opts.Metrics = reg
	var onRecord []func(campaign.RunRecord)
	if sink != nil {
		sink.SyncEvery(*syncEvery)
		sink.Instrument(reg, "archive")
		onRecord = append(onRecord, sink.Record)
		if *trace {
			// Without -trace, tracing stays off and the archive holds
			// record rows only.
			opts.OnTrace = sink.Trace
		}
	}
	if prog != nil {
		onRecord = append(onRecord, prog.Record)
	}
	if len(onRecord) > 0 {
		opts.OnRecord = func(rec campaign.RunRecord) {
			for _, f := range onRecord {
				f(rec)
			}
		}
	}

	// Signal lifecycle: the first SIGINT/SIGTERM cancels the campaign
	// context — dispatch stops, in-flight runs drain within -grace, the
	// archive flushes, and main prints the partial summary with a -resume
	// hint. A second signal flushes best-effort and exits immediately; the
	// file then relies on -sync-every durability and on resume's repair and
	// final-group cut.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr,
			"\ncampaign: %v: draining in-flight runs (up to %v); signal again to exit immediately\n",
			sig, *grace)
		if *out != "" && *out != "-" {
			fmt.Fprintf(os.Stderr, "campaign: finish later with: campaign -resume -out %s [same matrix flags]\n", *out)
		}
		cancel()
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "campaign: second signal: flushing and exiting now")
		if sink != nil {
			_ = sink.Flush()
		}
		os.Exit(exitInterrupted)
	}()

	start := time.Now()
	poolRunning.Store(true)
	recs, err := campaign.RunContext(ctx, plan, opts)
	poolRunning.Store(false)
	signal.Stop(sigc)
	close(sigc)
	interrupted := errors.Is(err, context.Canceled)
	budgetAbort := errors.Is(err, campaign.ErrBudgetExceeded)
	if err != nil && !interrupted && !budgetAbort {
		// A callback panic (sink bug) or an empty plan: the campaign state
		// is suspect, but flush whatever the archive still holds first.
		if sink != nil {
			_ = sink.Flush()
		}
		shutdownMetrics()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: archive:", err)
			os.Exit(1)
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: archive:", err)
			os.Exit(1)
		}
	}
	shutdownMetrics()

	sum := campaign.Aggregate(recs)
	fmt.Println(sum.Render())
	fmt.Printf("executed %d/%d runs with %d workers in %v (%.1f runs/s)\n",
		len(recs), planned, *workers, elapsed.Round(time.Millisecond),
		float64(len(recs))/elapsed.Seconds())
	if *out != "" && *out != "-" {
		fmt.Printf("%d observation rows written to %s\n", sink.Count(), *out)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "campaign: interrupted after %d/%d runs; archive flushed", len(recs), len(plan.Specs))
		if *out != "" && *out != "-" {
			fmt.Fprintf(os.Stderr, "; resume with: campaign -resume -out %s [same matrix flags]", *out)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(exitInterrupted)
	}
	if budgetAbort {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintf(os.Stderr, "campaign: failure budget exceeded after %d/%d runs; archive flushed", len(recs), len(plan.Specs))
		if *out != "" && *out != "-" {
			fmt.Fprintf(os.Stderr, "; resume with: campaign -resume -out %s [same matrix flags]", *out)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(exitBudgetAbort)
	}
	if sum.Errors > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d runs failed\n", sum.Errors)
		os.Exit(1)
	}
}

// parseHedge turns the -hedge flag into a HedgeConfig: "p95"-style values
// derive the delay from the live run-latency histogram; anything else must
// be a fixed duration.
func parseHedge(spec string) (campaign.HedgeConfig, error) {
	if strings.HasPrefix(spec, "p") {
		pct, err := strconv.Atoi(spec[1:])
		if err != nil || pct < 1 || pct > 99 {
			return campaign.HedgeConfig{}, fmt.Errorf("campaign: -hedge %q: want p1..p99 or a duration", spec)
		}
		return campaign.HedgeConfig{Quantile: float64(pct) / 100}, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil || d <= 0 {
		return campaign.HedgeConfig{}, fmt.Errorf("campaign: -hedge %q: want p1..p99 or a positive duration", spec)
	}
	return campaign.HedgeConfig{Delay: d}, nil
}

// splitCSV turns "a,b , c" into {"a","b","c"}.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
