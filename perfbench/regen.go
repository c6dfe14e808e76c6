package main

import (
	"fmt"
	"time"

	"safemeasure/internal/censorlogs"
	"safemeasure/internal/experiments"
	"safemeasure/internal/lab"
	"safemeasure/internal/spoof"
)

// experiment is one paper artifact: how to regenerate it at a seed and
// whether the result passes the experiment's own validation. A non-empty
// note reports a deviation from the repository tests' stricter shape that
// the benchmark records without failing the run (see overtBlackholeNote).
type experiment struct {
	id  string
	run func(seed int64, small bool) (ok bool, note string, err error)
}

// overtBlackholeNote marks runs where the overt-tcp baseline against an IP
// blackhole went unflagged (analyst score 0). The repository tests assert it
// is flagged, at one seed each; at about one seed in twenty it is not, in E2
// and E11 alike. The experiments' claims about the techniques under test
// still hold, so the benchmark counts these in its detail line instead of
// as failures.
const overtBlackholeNote = "overt-tcp baseline against the IP blackhole not flagged"

// sizes are cmd/labbench's defaults, or its -quick sizes for self-tests.
func sizes(small bool) (scanPorts, spamN, syriaUsers, feasN int, mvr time.Duration) {
	if small {
		return 100, 50, 2000, 10000, 10 * time.Second
	}
	return 1000, 100, 21000, 100000, 30 * time.Second
}

// paperExperiments regenerates E1–E12 as cmd/labbench does; each check is
// the experiment's own validation flag or the shape its benchmark reports.
var paperExperiments = []experiment{
	{"E1", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E1ReferenceSystems(seed)
		return err == nil && r.AllCorrect, "", err
	}},
	{"E2", func(seed int64, small bool) (bool, string, error) {
		ports, _, _, _, _ := sizes(small)
		r, err := experiments.E2Scanning(seed, ports)
		if err != nil {
			return false, "", err
		}
		note := ""
		if !r.OvertRisk.Flagged {
			note = overtBlackholeNote
		}
		return r.ScanCorrect && !r.ScanRisk.Flagged && r.OvertCorrect, note, nil
	}},
	{"E3", func(seed int64, small bool) (bool, string, error) {
		_, n, _, _, _ := sizes(small)
		r, err := experiments.E3SpamCDF(seed, n)
		return err == nil && r.TwitterPoisoned && r.YoutubePoisoned && r.Delivered, "", err
	}},
	{"E4", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E4DDoS(seed, 40)
		return err == nil && r.CensoredOK && r.OpenOK && !r.CensoredRisk.Flagged, "", err
	}},
	{"E5", func(seed int64, small bool) (bool, string, error) {
		_, _, users, _, _ := sizes(small)
		r, err := experiments.E5SyriaLogs(seed, users)
		return err == nil && r.WithinTolerance, "", err
	}},
	{"E6", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E6StatelessSpoof(seed, spoof.PolicySlash24)
		if err != nil {
			return false, "", err
		}
		for _, row := range r.Rows {
			if !row.Correct {
				return false, "", nil
			}
		}
		return r.CrossoverCovers > 0, "", nil
	}},
	{"E7", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E7StatefulSpoof(seed)
		return err == nil && len(r.Rows) == 4 && r.Rows[0].Correct && r.Rows[1].Correct && !r.Rows[2].Correct, "", err
	}},
	{"E8", func(seed int64, small bool) (bool, string, error) {
		_, _, _, n, _ := sizes(small)
		r, err := experiments.E8SpoofFeasibility(seed, n)
		return err == nil && r.CoverSlash16 == 65536 && r.FracSpoof24 >= 0.75 && r.FracSpoof24 <= 0.79 &&
			r.FracSpoof16 >= 0.10 && r.FracSpoof16 <= 0.12, "", err
	}},
	{"E9", func(seed int64, small bool) (bool, string, error) {
		_, _, _, _, horizon := sizes(small)
		r, err := experiments.E9MVR(seed, horizon)
		return err == nil && r.RetentionFrac <= 0.076 && r.DiscardFraction > 0, "", err
	}},
	{"E10", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E10EthicsLoad(seed)
		return err == nil && r.MeasurementAlerts >= r.BaselineAlerts, "", err
	}},
	{"E11", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E11TechniqueMatrix(seed)
		if err != nil {
			return false, "", err
		}
		note := ""
		if r.OvertFlagRate < 0.99 {
			note = overtBlackholeNote
		}
		return r.OvertAccuracy == 1 && r.StealthAccuracy == 1 && r.StealthFlagRate == 0 &&
			r.StealthFlagRate < r.OvertFlagRate, note, nil
	}},
	{"E12", func(seed int64, small bool) (bool, string, error) {
		r, err := experiments.E12Ablations(seed)
		return err == nil && r.FragCaughtWithReassembly && r.FragMissedWithoutReassembly &&
			r.ResidualContaminates && r.NoResidualClean, "", err
	}},
}

// regeneration is one full E1–E12 pass.
type regeneration struct {
	total time.Duration
	each  map[string]time.Duration
}

// regenerate runs every experiment serially at seed, counting each one
// that errors or fails its validation as a failed operation.
func regenerate(cfg config, seed int64, o *outcome, sp *spans, id int) regeneration {
	g := regeneration{each: map[string]time.Duration{}}
	root := sp.begin("regenerate", -1, id)
	start := time.Now()
	for _, e := range paperExperiments {
		s := sp.begin(e.id, root, id)
		t0 := time.Now()
		ok, note, err := e.run(seed, cfg.small)
		g.each[e.id] = time.Since(t0)
		sp.end(s)
		if note != "" {
			notes, _ := o.detail["shape_deviations"].(map[string]int)
			if notes == nil {
				notes = map[string]int{}
				o.detail["shape_deviations"] = notes
			}
			notes[e.id+": "+note]++
		}
		if cfg.tamper.failRegen && e.id == "E7" {
			ok = false
		}
		o.attempted++
		switch {
		case err != nil:
			o.fail(1, fmt.Sprintf("%s: %v", e.id, err))
		case !ok:
			o.fail(1, e.id+" failed its validation")
		}
	}
	g.total = time.Since(start)
	sp.end(root)
	return g
}

// regenSetup is the work before timing: compiling the lab artifacts of the
// default config and of every scenario, which the experiments' lab.New calls
// compile again for themselves.
func regenSetup() error {
	if _, err := lab.NewArtifacts(lab.Config{}); err != nil {
		return err
	}
	_, err := newArtifactSet()
	return err
}

// regenLoop is the measured paper-regen loop.
type regenLoop struct {
	setup  float64 // seconds, median over cfg.setups
	regens []regeneration
	traced []bool // which regenerations recorded spans
	cost   runtimeCost
}

// measureRegen sets up cfg.setups times, regenerates once untimed, then
// regenerates until the window closes (at least twice). With sp set, every
// other regeneration records spans.
func measureRegen(cfg config, o *outcome, sp *spans) (*regenLoop, error) {
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if err := regenSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	loop := &regenLoop{setup: median(seconds(setups))}
	// One untimed regeneration first: the first one in a process also grows
	// the heap to E5's size (about 1 GB), which the later ones reuse. Its
	// results are still validated.
	regenerate(cfg, cfg.seed, o, nil, -1)
	before := sampleRuntime()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.window; i++ {
		var rec *spans
		if i%2 == 1 {
			rec = sp
		}
		loop.regens = append(loop.regens, regenerate(cfg, cfg.seed, o, rec, i))
		loop.traced = append(loop.traced, rec != nil)
	}
	loop.cost = before.costTo(sampleRuntime(), len(loop.regens))
	return loop, nil
}

func runRegen(cfg config) (*outcome, error) {
	o := newOutcome()
	loop, err := measureRegen(cfg, o, nil)
	if err != nil {
		return nil, err
	}
	var totals []float64
	var elapsed float64
	for _, g := range loop.regens {
		totals = append(totals, g.total.Seconds()*1e3)
		elapsed += g.total.Seconds()
	}
	o.set("throughput_per_s", float64(len(loop.regens)*len(paperExperiments))/elapsed, "1/s")
	o.set("latency_p50_ms", median(totals), "ms")
	o.set("latency_p99_ms", tail(totals), "ms")
	o.set("setup_s", loop.setup, "s")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.detail["latency_samples"] = len(totals)
	o.detail["latency_ms"] = totals
	o.detail["op"] = "one full E1-E12 regeneration"
	return o, nil
}

func tracedRegen(cfg config) (*outcome, error) {
	o := newOutcome()
	sp := newSpans()
	loop, err := measureRegen(cfg, o, sp)
	if err != nil {
		return nil, err
	}
	setRuntimeCost(o, loop.cost)
	var on, off, other []float64
	for i, g := range loop.regens {
		if loop.traced[i] {
			on = append(on, g.total.Seconds())
		} else {
			off = append(off, g.total.Seconds())
		}
		other = append(other, (g.total - g.each["E5"]).Seconds())
	}
	o.set("bench.trace_overhead_frac", mean(on)/mean(off)-1, "ratio")
	o.set("experiments.other_s", median(other), "s")
	if _, err := layerSweep(cfg, o, sweepOpts{haveOther: true}); err != nil {
		return nil, err
	}
	return o, sp.write(cfg.spansPath)
}

// censorlogsLayer times E5's log generator and analyzer directly.
func censorlogsLayer(cfg config, o *outcome) {
	lc := censorlogs.DefaultConfig()
	lc.Seed = cfg.seed
	_, _, lc.Users, _, _ = sizes(cfg.small)
	var entries []censorlogs.Entry
	t0 := time.Now()
	allocs := allocsDuring(func() { entries = censorlogs.Generate(lc) })
	o.set("censorlogs.generate_s", time.Since(t0).Seconds(), "s")
	o.set("censorlogs.generate_allocs", float64(allocs), "count")
	o.set("censorlogs.entries", float64(len(entries)), "count")
	t0 = time.Now()
	censorlogs.Analyze(entries)
	o.set("censorlogs.analyze_s", time.Since(t0).Seconds(), "s")
}

// otherExperimentsLayer times E1–E12 without E5 once.
func otherExperimentsLayer(cfg config, o *outcome) {
	t0 := time.Now()
	for _, e := range paperExperiments {
		if e.id == "E5" {
			continue
		}
		e.run(cfg.seed, cfg.small)
	}
	o.set("experiments.other_s", time.Since(t0).Seconds(), "s")
}
