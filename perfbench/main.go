// Command perfbench is safemeasure's repository benchmark. One invocation
// measures one workload for a fixed wall-clock window and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the system
// sees; with -trace 1 they are the per-layer figures, measured by timing the
// layers' public functions from this package and reading the counters the
// program exports through telemetry.Registry. The line before the result is a
// JSON detail object: the host fingerprint, sample counts and the
// deterministic work counts.
//
// Workloads (see layers.json for what each one is meant to move):
//
//	campaign-e11  batch campaign over the paper's E11 matrix, archived as binary rows
//	service-miss  the measured service over loopback, three in four requests missing the cache
//	paper-regen   serial regeneration of the paper's E1–E12 artifacts
//
// Usage (from the repository root; run.sh builds this module first):
//
//	bash perfbench/run.sh --workload campaign-e11 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named benchmark load.
type workload struct {
	name string
	// run measures the untraced end-to-end metrics.
	run func(cfg config) (*outcome, error)
	// traced measures the per-layer metrics.
	traced func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"campaign-e11", runCampaign, tracedCampaign},
	{"service-miss", runService, tracedService},
	{"paper-regen", runRegen, tracedRegen},
}

// config is one invocation's parameters.
type config struct {
	seed      int64
	window    time.Duration // measured wall-clock window
	workDir   string        // scratch directory for stores and archives, removed at exit
	spansPath string        // where a traced run writes its spans
	setups    int           // set-up repetitions behind setup_s
	small     bool          // self-test sizes: tiny experiment and sweep inputs
	tamper    tamper        // self-test fault injection; zero in real runs
	nproc     int           // worker and connection bound
}

// tamper injects faults the correctness checks must catch (self-test only).
type tamper struct {
	flipHitByte   bool // flip one byte of every cache-hit response body
	failRegen     bool // make one experiment fail its validation
	wrongVerdicts bool // score every campaign record as if its verdict were wrong
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// fail records n failed operations with a reason for the detail line.
func (o *outcome) fail(n int, reason string) {
	if n <= 0 {
		return
	}
	o.failed += n
	reasons, _ := o.detail["failures"].(map[string]int)
	if reasons == nil {
		reasons = map[string]int{}
		o.detail["failures"] = reasons
	}
	reasons[reason] += n
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: campaign-e11, service-miss or paper-regen")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured wall-clock window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/runs", "scratch directory, relative to the current directory")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of campaign-e11, service-miss, paper-regen), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		workDir:   dir,
		spansPath: filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)),
		setups:    15,
		nproc:     runtime.NumCPU(),
	}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	out, err := run(cfg)
	// The scratch directory holds only this run's stores and archives; a
	// traced run's spans live next to it and stay behind.
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.detail["workload"] = *name
	out.detail["seed"] = *seed
	out.detail["trace"] = *trace
	out.detail["host"] = hostFingerprint(*workDir)
	printOutcome(os.Stdout, out)
}

// printOutcome writes the detail line and then the result line.
func printOutcome(f *os.File, out *outcome) {
	detail, _ := json.Marshal(out.detail)
	fmt.Fprintf(f, "%s\n", detail)
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(f, "%s\n", line)
}
