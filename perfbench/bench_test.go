package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"safemeasure/internal/campaign"
)

// The self-test runs every workload at tiny sizes. Run it from this
// directory with: go test ./...

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyConfig(t *testing.T) config {
	dir := t.TempDir()
	return config{
		seed:      1,
		window:    300 * time.Millisecond,
		workDir:   dir,
		spansPath: filepath.Join(dir, "spans.jsonl"),
		setups:    2,
		small:     true,
		nproc:     runtime.NumCPU(),
	}
}

func unitsOf(o *outcome) map[string]string {
	m := map[string]string{}
	for n, v := range o.metrics {
		m[n] = v.Unit
	}
	return m
}

// TestTinyRunsReportEveryMetric runs each workload untraced and traced and
// checks that it reports exactly BENCHMARK.json's metrics, with their units,
// on a correct run.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	bf := loadBenchmark(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			run, want := w.run, wantE2E
			if traced {
				run, want = w.traced, wantLayer
			}
			o, err := run(tinyConfig(t))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, o.failed, o.attempted, o.detail["failures"])
			}
			if got := unitsOf(o); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, metricNames(o), keys(want))
			}
			for n, v := range o.metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && v.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, v.Value)
				}
			}
		}
	}
}

// metricNames lists an outcome's metric names, sorted.
func metricNames(o *outcome) []string {
	var names []string
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCorrectnessChecksFire injects one fault per workload and expects the
// run to count failures.
func TestCorrectnessChecksFire(t *testing.T) {
	cases := []struct {
		name   string
		run    func(config) (*outcome, error)
		tamper tamper
	}{
		{"campaign verdict wrong", runCampaign, tamper{wrongVerdicts: true}},
		{"cache hit with a flipped byte", runService, tamper{flipHitByte: true}},
		{"experiment fails validation", runRegen, tamper{failRegen: true}},
	}
	for _, c := range cases {
		cfg := tinyConfig(t)
		cfg.tamper = c.tamper
		if c.tamper.flipHitByte {
			cfg.window = time.Second // long enough for repeats
		}
		o, err := c.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if o.failed == 0 {
			t.Errorf("%s: no failure counted (attempted %d)", c.name, o.attempted)
		}
	}
}

// TestMirrorCheckFires shows the mirror check rejects a record that differs
// from the program's by one field.
func TestMirrorCheckFires(t *testing.T) {
	plan, err := e11Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Specs[0]
	arts, err := newArtifactSet()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mirror(spec, arts, nil, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := campaign.ExecuteInstrumented(spec, campaign.ExecConfig{})
	if err := mirrorCheck(spec, m.rec, want); err != nil {
		t.Fatal(err)
	}
	want.Probes++
	if mirrorCheck(spec, m.rec, want) == nil {
		t.Fatal("mirror check accepted a drifted record")
	}
}

// TestWorkCountsRepeat runs the simulation sweep twice at one seed: the
// deterministic work counts must agree exactly.
func TestWorkCountsRepeat(t *testing.T) {
	var counts []any
	for i := 0; i < 2; i++ {
		o := newOutcome()
		if _, err := simulationLayers(tinyConfig(t), o); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, o.detail["work_counts"])
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("work counts differ: %+v then %+v", counts[0], counts[1])
	}
}

// TestLayersFileNamesEveryMetric keeps layers.json's prediction table and
// BENCHMARK.json's per-layer list in step.
func TestLayersFileNamesEveryMetric(t *testing.T) {
	bf := loadBenchmark(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lf struct {
		Workloads   map[string]any `json:"workloads"`
		Predictions []struct {
			Metrics []string `json:"metrics"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &lf); err != nil {
		t.Fatal(err)
	}
	predicted := map[string]bool{}
	for _, p := range lf.Predictions {
		for _, m := range p.Metrics {
			predicted[m] = true
		}
	}
	listed := map[string]bool{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = true
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no prediction in layers.json", m.Name)
		}
	}
	for m := range predicted {
		if !listed[m] {
			t.Errorf("layers.json predicts %s, which BENCHMARK.json does not list", m)
		}
	}
	for _, w := range bf.Workloads {
		if lf.Workloads[w.Name] == nil {
			t.Errorf("layers.json does not describe workload %s", w.Name)
		}
	}
}
