package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
)

// e11Plan is the campaign-e11 input for one pass: every technique against
// every scenario, applicable cells only (21 runs), pristine link, faithful
// censor, one trial.
func e11Plan(seed int64) (*campaign.Plan, error) {
	return campaign.NewPlan(campaign.PlanConfig{Trials: 1, Seed: seed})
}

// passSeed derives the plan seed of pass p from the workload seed
// (splitmix64), so consecutive passes measure fresh inputs.
func passSeed(seed int64, p int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(p+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// recordOK checks a campaign record independently of the record's own
// Correct flag: no error, and a verdict that matches the scenario's ground
// truth as the lab's scenario table states it.
func recordOK(rec campaign.RunRecord, spec campaign.RunSpec, t tamper) bool {
	sc, ok := lab.ScenarioByName(spec.Scenario)
	if !ok || rec.Error != "" || rec.Technique != spec.Technique ||
		rec.Scenario != spec.Scenario || rec.Seed != spec.Seed {
		return false
	}
	want := core.VerdictAccessible.String()
	if sc.Censored {
		want = core.VerdictCensored.String()
	}
	if t.wrongVerdicts {
		want = "tampered"
	}
	return rec.Verdict == want && rec.Correct && rec.GroundTruth == sc.Censored
}

// campaignSetup is the work done before timing starts: compiling every
// scenario's lab artifacts cold and opening the binary archive.
//
// The archive buffers until the final Flush, as cmd/campaign -sync-every 0
// does: every row is still encoded and written, but no worker waits for an
// fsync. The archive lives inside the benchmark's checkout on the VM's
// shared disk, where periodic fsyncs moved a run's throughput by up to a
// quarter between otherwise identical runs.
func campaignSetup(path string) (*campaign.ObservationSink, *os.File, error) {
	for _, sc := range lab.Scenarios() {
		if _, err := lab.NewArtifacts(sc.Config(0)); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return campaign.NewObservationSink(archival.NewBinaryWriter(f)), f, nil
}

// campaignLoop is the measured campaign-e11 loop: passes over the E11
// matrix at nproc workers until the window closes.
type campaignLoop struct {
	setup  float64 // seconds, median over cfg.setups
	passes []sample
	runs   int
	cost   runtimeCost
	rows   int
}

func measureCampaign(cfg config, o *outcome) (*campaignLoop, error) {
	var setups []time.Duration
	var sink *campaign.ObservationSink
	var f *os.File
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.Close()
		}
		t0 := time.Now()
		var err error
		sink, f, err = campaignSetup(filepath.Join(cfg.workDir, "campaign.smoa"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer f.Close()

	opts := campaign.Options{Workers: cfg.nproc, OnRecord: sink.Record}
	// One untimed pass fills the campaign's own artifact cache.
	if plan, err := e11Plan(passSeed(cfg.seed, -1)); err != nil {
		return nil, err
	} else if _, err := campaign.Run(plan, opts); err != nil {
		return nil, err
	}

	loop := &campaignLoop{setup: median(seconds(setups))}
	before := sampleRuntime()
	start := time.Now()
	for p := 0; time.Since(start) < cfg.window; p++ {
		plan, err := e11Plan(passSeed(cfg.seed, p))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		recs, err := campaign.Run(plan, opts)
		if err != nil {
			return nil, err
		}
		loop.passes = append(loop.passes, sample{end: time.Since(start), latency: time.Since(t0), units: len(recs)})
		o.attempted += len(plan.Specs)
		if len(recs) != len(plan.Specs) {
			o.fail(len(plan.Specs), "campaign returned a short record set")
			continue
		}
		bad := 0
		for i, rec := range recs {
			if !recordOK(rec, plan.Specs[i], cfg.tamper) {
				bad++
			}
		}
		o.fail(bad, "campaign record wrong against ground truth")
		loop.runs += len(recs)
	}
	loop.cost = before.costTo(sampleRuntime(), loop.runs)

	if err := sink.Flush(); err != nil {
		return nil, fmt.Errorf("campaign archive: %w", err)
	}
	// The archive must read back row for row.
	loop.rows = sink.Count()
	read, err := countArchiveRows(f.Name())
	if err != nil {
		return nil, err
	}
	if read != loop.rows {
		o.fail(1, fmt.Sprintf("archive read back %d rows, wrote %d", read, loop.rows))
	}
	o.detail["passes"] = len(loop.passes)
	o.detail["runs"] = loop.runs
	o.detail["archive_rows"] = loop.rows
	return loop, nil
}

// countArchiveRows reads an archive back and counts its observation rows.
func countArchiveRows(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := archival.NewReader(f, archival.TailStrict, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

func runCampaign(cfg config) (*outcome, error) {
	o := newOutcome()
	loop, err := measureCampaign(cfg, o)
	if err != nil {
		return nil, err
	}
	reportLoop(o, loop.passes)
	o.set("setup_s", loop.setup, "s")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.detail["op"] = "one pass over the 21-run E11 matrix"
	return o, nil
}

func tracedCampaign(cfg config) (*outcome, error) {
	o := newOutcome()
	loop, err := measureCampaign(cfg, o)
	if err != nil {
		return nil, err
	}
	rates, _, _ := sliceStats(loop.passes, rateSlices)
	runsPerS := median(rates)
	setRuntimeCost(o, loop.cost)
	sw, err := layerSweep(cfg, o, sweepOpts{runsPerS: runsPerS})
	if err != nil {
		return nil, err
	}
	// The benchmark's own tracing on this workload is the stage-by-stage
	// mirror: its spans, stage timers and allocation counts.
	o.set("bench.trace_overhead_frac", sw.mirrorUS/sw.executeUS-1, "ratio")
	return o, nil
}

// setRuntimeCost reports the Go runtime's per-operation bill.
func setRuntimeCost(o *outcome, c runtimeCost) {
	o.set("runtime.gc_cpu_frac", c.gcCPUFrac, "ratio")
	o.set("runtime.allocs_per_op", c.allocsPerOp, "count")
	o.set("runtime.bytes_per_op", c.bytesPerOp, "B")
}
