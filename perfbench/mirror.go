package main

import (
	"bytes"
	"fmt"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/netsim"
	"safemeasure/internal/telemetry"
)

// The mirror re-runs one campaign spec stage by stage through the public
// functions campaign.ExecuteInstrumented calls, timing each stage and
// tapping the border router, so per-layer costs can be read from outside
// the program. mirrorCheck proves the mirror still describes the real
// program: its record must be byte-identical to ExecuteInstrumented's.

// configured mirrors the campaign's E11 technique tuning.
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

// noneAsEmpty renders the pristine link and the faithful censor as the
// empty string, as campaign records do.
func noneAsEmpty(name, none string) string {
	if name == none {
		return ""
	}
	return name
}

// runCounts are one run's deterministic work counts.
type runCounts struct {
	Events, Forwarded                int64
	CensorIDSPackets, CensorEnforced int64
	SurveilPackets, SurveilDiscarded int64
	Alerts, Attempts, Rows, Bytes    int64
}

func (c *runCounts) add(d runCounts) {
	c.Events += d.Events
	c.Forwarded += d.Forwarded
	c.CensorIDSPackets += d.CensorIDSPackets
	c.CensorEnforced += d.CensorEnforced
	c.SurveilPackets += d.SurveilPackets
	c.SurveilDiscarded += d.SurveilDiscarded
	c.Alerts += d.Alerts
	c.Attempts += d.Attempts
	c.Rows += d.Rows
	c.Bytes += d.Bytes
}

// stageTimes are one run's per-stage wall times.
type stageTimes struct {
	labNew, run, risk, flatten, encode time.Duration
	labAllocs                          uint64
}

func (s *stageTimes) add(d stageTimes) {
	s.labNew += d.labNew
	s.run += d.run
	s.risk += d.risk
	s.flatten += d.flatten
	s.encode += d.encode
	s.labAllocs += d.labAllocs
}

// mirrorRun is one spec through the mirror.
type mirrorRun struct {
	rec     campaign.RunRecord
	counts  runCounts
	times   stageTimes
	capture *netsim.Capture
	labCfg  lab.Config
}

// artifactSet holds compiled artifacts per scenario, as the campaign's own
// cache does.
type artifactSet map[string]*lab.Artifacts

func newArtifactSet() (artifactSet, error) {
	set := artifactSet{}
	for _, sc := range lab.Scenarios() {
		art, err := lab.NewArtifacts(sc.Config(0))
		if err != nil {
			return nil, err
		}
		set[sc.Name] = art
	}
	return set, nil
}

// mirror executes spec stage by stage, recording spans into sp (nil skips
// them) under run id. With counted set, the run's counters go to a private
// telemetry registry and become m.counts; with capture set, a capture tap on
// the border router keeps every datagram for replay. Timing repetitions set
// neither, so the lab runs as a campaign worker's does.
func mirror(spec campaign.RunSpec, arts artifactSet, sp *spans, id int, counted, capture bool) (*mirrorRun, error) {
	tech, ok := configured(spec.Technique)
	if !ok {
		return nil, fmt.Errorf("mirror: unknown technique %q", spec.Technique)
	}
	sc, ok := lab.ScenarioByName(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("mirror: unknown scenario %q", spec.Scenario)
	}
	imp, _ := lab.ImpairmentByName(spec.Impairment)
	bhv, _ := lab.BehaviorByName(spec.Behavior)
	var reg *telemetry.Registry
	if counted {
		reg = telemetry.NewRegistry()
	}
	labCfg := sc.Config(spec.Seed)
	labCfg.Impair = imp.Impair
	labCfg.Behavior = bhv.Behavior
	labCfg.Telemetry = reg
	labCfg.Artifacts = arts[sc.Name]

	m := &mirrorRun{labCfg: labCfg}
	root := sp.begin("run", -1, id)
	var l *lab.Lab
	var err error
	s := sp.begin("lab.New", root, id)
	t0 := time.Now()
	m.times.labAllocs = allocsDuring(func() { l, err = lab.New(labCfg) })
	m.times.labNew = time.Since(t0)
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("mirror: lab: %w", err)
	}
	if capture {
		m.capture = netsim.NewCapture("border")
		l.Border.AddTap(m.capture)
	}

	s = sp.begin("StartPopulation", root, id)
	l.StartPopulation(campaign.DefaultHorizon)
	sp.end(s)

	s = sp.begin("core.RunWithRetry", root, id)
	var res *core.Result
	tgt := core.Target{Domain: sc.Domain, Path: sc.Path, Port: sc.Port, Addr: sc.Addr}
	core.RunWithRetry(l, tech, tgt, core.RetryPolicy{}, func(r *core.Result) { res = r })
	sp.end(s)

	s = sp.begin("Lab.Run", root, id)
	t0 = time.Now()
	events := l.Run()
	m.times.run = time.Since(t0)
	sp.end(s)
	if res == nil {
		return nil, fmt.Errorf("mirror: %s never completed", spec.Technique)
	}

	s = sp.begin("core.EvaluateRisk", root, id)
	t0 = time.Now()
	risk := core.EvaluateRisk(l, lab.ClientAddr)
	m.times.risk = time.Since(t0)
	sp.end(s)

	s = sp.begin("core.NewRecord", root, id)
	m.rec = campaign.RunRecord{
		Scenario:    spec.Scenario,
		Impairment:  noneAsEmpty(spec.Impairment, lab.ImpairmentNone),
		Behavior:    noneAsEmpty(spec.Behavior, lab.BehaviorNone),
		Trial:       spec.Trial,
		Record:      core.NewRecord(res, risk, spec.Seed, l.Sim.Now()),
		GroundTruth: sc.Censored,
	}
	m.rec.Correct = (res.Verdict == core.VerdictCensored) == sc.Censored &&
		res.Verdict != core.VerdictInconclusive
	sp.end(s)

	s = sp.begin("campaign.FlattenRecord", root, id)
	t0 = time.Now()
	obs := campaign.FlattenRecord(m.rec)
	m.times.flatten = time.Since(t0)
	sp.end(s)

	s = sp.begin("archival.AppendObservation", root, id)
	t0 = time.Now()
	var buf []byte
	for i := range obs {
		buf = archival.AppendObservation(buf, &obs[i])
	}
	m.times.encode = time.Since(t0)
	sp.end(s)
	sp.end(root)
	if !counted {
		return m, nil
	}
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	m.counts = runCounts{
		Events:           int64(events),
		Forwarded:        counter("netsim_forwarded_total"),
		CensorIDSPackets: counter("censor_ids_packets_total"),
		CensorEnforced:   counter("censor_enforced_total"),
		SurveilPackets:   counter("surveil_packets_seen_total"),
		SurveilDiscarded: counter("surveil_discarded_total"),
		Alerts:           counter("censor_ids_alerts_total") + counter("surveil_ids_alerts_total"),
		Attempts:         int64(m.rec.Attempts),
		Rows:             int64(len(obs)),
		Bytes:            int64(len(buf)),
	}
	return m, nil
}

// mirrorCheck fails unless the mirror's record is byte-identical to the
// program's own for the same spec.
func mirrorCheck(spec campaign.RunSpec, got campaign.RunRecord, want campaign.RunRecord) error {
	a, err := archival.MarshalLine(got)
	if err != nil {
		return err
	}
	b, err := archival.MarshalLine(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("mirror drifted from campaign.ExecuteInstrumented on %s/%s seed %d:\n mirror:  %s\n program: %s",
			spec.Technique, spec.Scenario, spec.Seed, a, b)
	}
	return nil
}
