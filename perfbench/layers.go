package main

import (
	"bytes"
	"fmt"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/dnswire"
	"safemeasure/internal/httpwire"
	"safemeasure/internal/lab"
	"safemeasure/internal/packet"
)

// sweepOpts says which per-layer figures the traced workload already has.
type sweepOpts struct {
	runsPerS    float64 // campaign runs/s at nproc workers; 0 measures it here
	haveService bool    // measured.* came from the workload's own loop
	haveOther   bool    // experiments.other_s came from the workload's own loop
}

// sweepResult carries figures a workload needs after the sweep.
type sweepResult struct {
	mirrorUS, executeUS float64 // serial per-run wall time: traced mirror, program
}

// layerSweep measures every per-layer metric the workload did not measure
// itself, so each traced run reports the full per-layer set.
func layerSweep(cfg config, o *outcome, opts sweepOpts) (*sweepResult, error) {
	sw, err := simulationLayers(cfg, o)
	if err != nil {
		return nil, err
	}
	runsPerS := opts.runsPerS
	if runsPerS == 0 {
		if runsPerS, err = shortCampaign(cfg); err != nil {
			return nil, err
		}
	}
	o.set("campaign.parallel_eff", runsPerS/(float64(cfg.nproc)*1e6/sw.executeUS), "ratio")
	if !opts.haveService {
		probe := cfg
		probe.setups = 1
		window := 2 * time.Second
		if cfg.small {
			window = 300 * time.Millisecond
		}
		po := newOutcome()
		h, loop, err := measureService(probe, po, window, false, nil)
		if err != nil {
			return nil, err
		}
		err = serviceLayers(probe, o, h, loop)
		if stopErr := h.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		o.attempted += po.attempted
		reasons, _ := po.detail["failures"].(map[string]int)
		for reason, n := range reasons {
			o.fail(n, "service probe: "+reason)
		}
	}
	censorlogsLayer(cfg, o)
	if !opts.haveOther {
		otherExperimentsLayer(cfg, o)
	}
	return sw, nil
}

// shortCampaign measures campaign runs/s at nproc workers for about a
// second.
func shortCampaign(cfg config) (float64, error) {
	runs := 0
	start := time.Now()
	for p := 0; p == 0 || (!cfg.small && time.Since(start) < time.Second); p++ {
		plan, err := e11Plan(passSeed(cfg.seed, p))
		if err != nil {
			return 0, err
		}
		recs, err := campaign.Run(plan, campaign.Options{Workers: cfg.nproc})
		if err != nil {
			return 0, err
		}
		runs += len(recs)
	}
	return float64(runs) / time.Since(start).Seconds(), nil
}

// layerTimes accumulates one timed layer: total time and operation count.
type layerTimes struct {
	d time.Duration
	n int
}

func (l *layerTimes) time(n int, f func()) {
	t0 := time.Now()
	f()
	l.d += time.Since(t0)
	l.n += n
}

func (l layerTimes) nsPerOp() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.d.Nanoseconds()) / float64(l.n)
}

// replayTimes are the per-packet layer costs from replaying captures.
type replayTimes struct {
	censor, surveil, ids, parse     layerTimes
	dnsParse, dnsMarshal, httpParse layerTimes
	dnsMarshalAllocs                uint64
}

// noInjector swallows the censor's forged packets during replay.
type noInjector struct{}

func (noInjector) Inject([]byte) {}

// replay feeds one run's captured border datagrams through freshly built
// layers: packet.Parse, the DNS and HTTP codecs, an IDS engine with the
// surveillance ruleset, the surveillance system and the censor.
func replay(m *mirrorRun, rt *replayTimes) error {
	cfg := m.labCfg
	cfg.Telemetry = nil
	fresh, err := lab.New(cfg)
	if err != nil {
		return err
	}
	pkts := m.capture.Packets
	rt.parse.time(len(pkts), func() {
		for _, tp := range pkts {
			packet.Parse(tp.Raw)
		}
	})
	var dns [][]byte
	var reqs, resps [][]byte
	for _, tp := range pkts {
		p := tp.Pkt
		if p == nil {
			continue
		}
		switch {
		case p.UDP != nil && (p.UDP.SrcPort == 53 || p.UDP.DstPort == 53) && len(p.UDP.Payload) > 0:
			dns = append(dns, p.UDP.Payload)
		case p.TCP != nil && len(p.TCP.Payload) > 0:
			pl := p.TCP.Payload
			if bytes.HasPrefix(pl, []byte("HTTP/")) {
				resps = append(resps, pl)
			} else if bytes.HasPrefix(pl, []byte("GET ")) || bytes.HasPrefix(pl, []byte("POST ")) || bytes.HasPrefix(pl, []byte("HEAD ")) {
				reqs = append(reqs, pl)
			}
		}
	}
	var msgs []*dnswire.Message
	rt.dnsParse.time(len(dns), func() {
		for _, b := range dns {
			if msg, err := dnswire.ParseMessage(b); err == nil {
				msgs = append(msgs, msg)
			}
		}
	})
	rt.dnsMarshalAllocs += allocsDuring(func() {
		rt.dnsMarshal.time(len(msgs), func() {
			for _, msg := range msgs {
				msg.Marshal()
			}
		})
	})
	rt.httpParse.time(len(reqs)+len(resps), func() {
		for _, b := range reqs {
			httpwire.ParseRequest(b)
		}
		for _, b := range resps {
			httpwire.ParseResponse(b)
		}
	})
	engine := fresh.Surveil.Engine().Compiled().NewEngine()
	rt.ids.time(len(pkts), func() {
		for _, tp := range pkts {
			if tp.Pkt != nil {
				engine.Feed(tp.Time, tp.Pkt)
			}
		}
	})
	rt.surveil.time(len(pkts), func() {
		for _, tp := range pkts {
			fresh.Surveil.Observe(tp, noInjector{})
		}
	})
	rt.censor.time(len(pkts), func() {
		for _, tp := range pkts {
			fresh.Censor.Observe(tp, noInjector{})
		}
	})
	return nil
}

// simulationLayers runs the campaign-e11 specs of a few passes through the
// mirror and through campaign.ExecuteInstrumented, several times over, and
// checks every mirror record against the program's. Repetition 0 counts
// work and captures the border; repetition 1 counts again without the
// capture, and the counts must repeat exactly; the remaining repetitions
// run as a campaign worker does (no registry, no capture) and carry the
// timings, each replaying repetition 0's captures through the packet-level
// layers.
func simulationLayers(cfg config, o *outcome) (*sweepResult, error) {
	passes, reps := 4, 5
	if cfg.small {
		passes, reps = 1, 3
	}
	var specs []campaign.RunSpec
	for p := 0; p < passes; p++ {
		plan, err := e11Plan(passSeed(cfg.seed, p))
		if err != nil {
			return nil, err
		}
		specs = append(specs, plan.Specs...)
	}

	var artMS []float64
	var arts artifactSet
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if arts, err = newArtifactSet(); err != nil {
			return nil, err
		}
		artMS = append(artMS, time.Since(t0).Seconds()*1e3/float64(len(arts)))
	}
	o.set("lab.artifacts_ms", median(artMS), "ms")

	type repStats struct {
		stage           stageTimes
		replay          replayTimes
		mirror, execute time.Duration
	}
	var stats []repStats
	captured := make([]*mirrorRun, len(specs))
	var total runCounts
	sp := newSpans()
	for r := 0; r < reps; r++ {
		var st repStats
		for i, spec := range specs {
			t0 := time.Now()
			m, err := mirror(spec, arts, sp, i+r*len(specs), r < 2, r == 0)
			st.mirror += time.Since(t0)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			want, _ := campaign.ExecuteInstrumented(spec, campaign.ExecConfig{})
			st.execute += time.Since(t0)
			if err := mirrorCheck(spec, m.rec, want); err != nil {
				return nil, err
			}
			o.attempted++
			if !recordOK(want, spec, cfg.tamper) {
				o.fail(1, "campaign record wrong against ground truth")
			}
			switch r {
			case 0:
				captured[i] = m
				total.add(m.counts)
			case 1:
				if m.counts != captured[i].counts {
					return nil, fmt.Errorf("work counts of %s/%s seed %d differ between repetitions: %+v then %+v",
						spec.Technique, spec.Scenario, spec.Seed, captured[i].counts, m.counts)
				}
			default:
				st.stage.add(m.times)
				if err := replay(captured[i], &st.replay); err != nil {
					return nil, err
				}
			}
		}
		if r >= 2 {
			stats = append(stats, st)
		}
	}
	if err := sp.write(cfg.spansPath + ".mirror"); err != nil {
		return nil, err
	}

	n := float64(len(specs))
	perRun := func(f func(repStats) time.Duration, unit float64) float64 {
		var xs []float64
		for _, s := range stats {
			xs = append(xs, float64(f(s).Nanoseconds())/n/unit)
		}
		return median(xs)
	}
	perOp := func(f func(repStats) layerTimes) float64 {
		var xs []float64
		for _, s := range stats {
			xs = append(xs, f(s).nsPerOp())
		}
		return median(xs)
	}
	o.set("lab.new_us", perRun(func(s repStats) time.Duration { return s.stage.labNew }, 1e3), "us")
	o.set("lab.new_allocs", float64(stats[0].stage.labAllocs)/n, "count")
	o.set("netsim.run_us", perRun(func(s repStats) time.Duration { return s.stage.run }, 1e3), "us")
	o.set("netsim.ns_per_event", perRun(func(s repStats) time.Duration { return s.stage.run }, 1)*n/float64(total.Events), "ns")
	o.set("core.risk_us", perRun(func(s repStats) time.Duration { return s.stage.risk }, 1e3), "us")
	o.set("archival.flatten_us", perRun(func(s repStats) time.Duration { return s.stage.flatten }, 1e3), "us")
	o.set("archival.encode_ns_per_row", perRun(func(s repStats) time.Duration { return s.stage.encode }, 1)*n/float64(total.Rows), "ns")
	executeUS := perRun(func(s repStats) time.Duration { return s.execute }, 1e3)
	mirrorUS := perRun(func(s repStats) time.Duration { return s.mirror }, 1e3)
	o.set("campaign.execute_us", executeUS, "us")

	o.set("censor.observe_ns", perOp(func(s repStats) layerTimes { return s.replay.censor }), "ns")
	o.set("surveil.observe_ns", perOp(func(s repStats) layerTimes { return s.replay.surveil }), "ns")
	o.set("ids.feed_ns", perOp(func(s repStats) layerTimes { return s.replay.ids }), "ns")
	o.set("packet.parse_ns", perOp(func(s repStats) layerTimes { return s.replay.parse }), "ns")
	o.set("dnswire.parse_ns", perOp(func(s repStats) layerTimes { return s.replay.dnsParse }), "ns")
	o.set("dnswire.marshal_ns", perOp(func(s repStats) layerTimes { return s.replay.dnsMarshal }), "ns")
	o.set("httpwire.parse_ns", perOp(func(s repStats) layerTimes { return s.replay.httpParse }), "ns")
	if m := stats[0].replay.dnsMarshal.n; m > 0 {
		o.set("dnswire.marshal_allocs", float64(stats[0].replay.dnsMarshalAllocs)/float64(m), "count")
	}

	per := func(v int64) float64 { return float64(v) / n }
	o.set("netsim.events_per_run", per(total.Events), "count")
	o.set("netsim.forwarded_per_run", per(total.Forwarded), "count")
	o.set("censor.ids_packets_per_run", per(total.CensorIDSPackets), "count")
	o.set("censor.enforced_per_run", per(total.CensorEnforced), "count")
	o.set("surveil.packets_per_run", per(total.SurveilPackets), "count")
	o.set("surveil.discard_ratio", float64(total.SurveilDiscarded)/float64(total.SurveilPackets), "ratio")
	o.set("ids.alerts_per_run", per(total.Alerts), "count")
	o.set("core.attempts_per_run", per(total.Attempts), "count")
	o.set("archival.rows_per_run", per(total.Rows), "count")
	o.set("archival.bytes_per_run", per(total.Bytes), "B")
	o.detail["work_counts"] = total
	o.detail["mirror_runs"] = len(specs)
	o.detail["mirror_repetitions"] = reps
	return &sweepResult{mirrorUS: mirrorUS, executeUS: executeUS}, nil
}
