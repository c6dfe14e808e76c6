package campaign

import (
	"fmt"
	"sync"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/telemetry"
)

// artifactCache shares compiled lab artifacts (IDS rulesets, DNS zone, site
// catalog) across every run of a campaign — and across campaigns in the
// same process, which is what lets the measured service's persistent pool
// benefit too. Keyed by scenario name: a scenario fixes every
// compile-relevant config field, and an impairment only shapes the WAN
// uplink, never the compiled artifacts; lab.New still validates the
// artifacts against each run's exact config, so a mismatch surfaces as a
// descriptive per-run error instead of a silently wrong simulation.
var artifactCache sync.Map // scenario name -> *lab.Artifacts

func artifactsFor(sc lab.Scenario) (*lab.Artifacts, error) {
	if v, ok := artifactCache.Load(sc.Name); ok {
		return v.(*lab.Artifacts), nil
	}
	art, err := lab.NewArtifacts(sc.Config(0))
	if err != nil {
		return nil, err
	}
	// Two workers may race the first compile; LoadOrStore keeps exactly one
	// winner so every later run shares the same immutable value.
	v, _ := artifactCache.LoadOrStore(sc.Name, art)
	return v.(*lab.Artifacts), nil
}

// DefaultHorizon is how long population cover traffic runs alongside each
// measurement — the E11 evaluation value.
const DefaultHorizon = 2 * time.Second

// configured returns a fresh technique instance tuned with the E11
// evaluation parameters (bounded scan/flood sizes, cover counts), falling
// back to core defaults for anything unlisted.
func configured(name string) (core.Technique, bool) {
	switch name {
	case "syn-scan":
		return &core.SYNScan{Ports: 100}, true
	case "ddos":
		return &core.DDoS{Requests: 30}, true
	case "spoofed-dns":
		return &core.SpoofedDNS{Covers: 8}, true
	case "spoofed-syn":
		return &core.SpoofedSYN{Covers: 8}, true
	case "stateful-spoof":
		return &core.Stateful{Covers: 4}, true
	default:
		return core.ByName(name)
	}
}

// errorRecord fills a RunRecord for a run that produced no measurement.
func errorRecord(spec RunSpec, err error) RunRecord {
	rec := RunRecord{Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
		Behavior: recordBehavior(spec.Behavior), Trial: spec.Trial, Error: err.Error()}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	return rec
}

// recordImpairment canonicalizes the impairment name for records: the
// pristine link renders as the empty string (omitted from JSONL).
func recordImpairment(name string) string {
	if name == lab.ImpairmentNone {
		return ""
	}
	return name
}

// recordBehavior canonicalizes the censor-behavior name for records: the
// faithful censor renders as the empty string (omitted from JSONL), so
// behavior-unaware files stay byte-identical and resume-compatible.
func recordBehavior(name string) string {
	if name == lab.BehaviorNone {
		return ""
	}
	return name
}

// DefaultTraceCap bounds each run's trace ring; the ring keeps the newest
// events and counts drops.
const DefaultTraceCap = 8192

// ExecConfig parameterizes ExecuteInstrumented.
type ExecConfig struct {
	// Horizon is the population cover-traffic horizon; 0 means
	// DefaultHorizon.
	Horizon time.Duration
	// Metrics, when set, receives the run's hot-path counters (shared
	// across runs — every metric is atomic and commutative, so final
	// values are independent of worker count).
	Metrics *telemetry.Registry
	// Trace enables per-run packet-path tracing into a private ring of
	// DefaultTraceCap events.
	Trace bool
	// Retry is the per-probe retry policy (virtual-time backoff + jitter);
	// the zero value means core.DefaultRetryPolicy(). Set
	// core.SingleShot() for the legacy one-probe behaviour.
	Retry core.RetryPolicy
}

// Execute runs one spec to completion in its own lab: build, start
// population cover traffic for horizon, run the technique, drain the
// simulator, and evaluate the measurer's risk. It never shares state with
// other runs, so any number of Executes may proceed concurrently.
func Execute(spec RunSpec, horizon time.Duration) RunRecord {
	rec, _ := ExecuteInstrumented(spec, ExecConfig{Horizon: horizon})
	return rec
}

// ExecuteInstrumented is Execute with telemetry: hot-path metrics flow into
// cfg.Metrics and, when cfg.Trace is set, the run's packet-path events are
// returned in emission order. Each run gets its own ring, so traces are
// per-run deterministic regardless of what other workers are doing.
func ExecuteInstrumented(spec RunSpec, cfg ExecConfig) (RunRecord, []telemetry.Event) {
	tech, ok := configured(spec.Technique)
	if !ok {
		return errorRecord(spec, fmt.Errorf("unknown technique %q", spec.Technique)), nil
	}
	sc, ok := lab.ScenarioByName(spec.Scenario)
	if !ok {
		return errorRecord(spec, fmt.Errorf("unknown scenario %q", spec.Scenario)), nil
	}
	imp, ok := lab.ImpairmentByName(spec.Impairment)
	if !ok {
		return errorRecord(spec, fmt.Errorf("unknown impairment %q", spec.Impairment)), nil
	}
	bhv, ok := lab.BehaviorByName(spec.Behavior)
	if !ok {
		return errorRecord(spec, fmt.Errorf("unknown censor behavior %q", spec.Behavior)), nil
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	labCfg := sc.Config(spec.Seed)
	labCfg.Impair = imp.Impair
	labCfg.Behavior = bhv.Behavior
	labCfg.Telemetry = cfg.Metrics
	if art, err := artifactsFor(sc); err == nil {
		labCfg.Artifacts = art
	} // on error, lab.New recompiles and reports the same failure per run
	var ring *telemetry.Ring
	if cfg.Trace {
		ring = telemetry.NewRing(DefaultTraceCap)
		labCfg.Trace = telemetry.NewTracer(ring)
	}
	events := func() []telemetry.Event {
		if ring == nil {
			return nil
		}
		return ring.Events()
	}
	l, err := lab.New(labCfg)
	if err != nil {
		return errorRecord(spec, fmt.Errorf("lab: %w", err)), events()
	}
	l.StartPopulation(horizon)

	tgt := core.Target{Domain: sc.Domain, Path: sc.Path, Port: sc.Port, Addr: sc.Addr}
	var res *core.Result
	core.RunWithRetry(l, tech, tgt, cfg.Retry, func(r *core.Result) { res = r })
	l.Run()
	if res == nil {
		return errorRecord(spec, fmt.Errorf("%s never completed", spec.Technique)), events()
	}

	risk := core.EvaluateRisk(l, lab.ClientAddr)
	rec := RunRecord{
		Scenario:    spec.Scenario,
		Impairment:  recordImpairment(spec.Impairment),
		Behavior:    recordBehavior(spec.Behavior),
		Trial:       spec.Trial,
		Record:      core.NewRecord(res, risk, spec.Seed, l.Sim.Now()),
		GroundTruth: sc.Censored,
	}
	rec.Correct = (res.Verdict == core.VerdictCensored) == sc.Censored &&
		res.Verdict != core.VerdictInconclusive
	return rec, events()
}
