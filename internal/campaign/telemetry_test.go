package campaign

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

func recordFor(tech string) core.Record { return core.Record{Technique: tech} }

// runInstrumented executes the plan with full telemetry at the given worker
// count and returns the scheduling-independent canonical forms: the final
// counter exposition and the sorted trace rows of the JSONL archive.
func runInstrumented(t *testing.T, seed int64, workers int) (counters, trace string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	recs, err := Run(smallPlan(t, seed), Options{
		Workers:  workers,
		Metrics:  reg,
		OnTrace:  sink.Trace,
		OnRecord: sink.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("%s/%s trial %d failed: %s", rec.Technique, rec.Scenario, rec.Trial, rec.Error)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.Contains(line, `"type":"trace"`) {
			rows = append(rows, line)
		}
	}
	sort.Strings(rows)
	return reg.Snapshot().CountersText(), strings.Join(rows, "\n")
}

func TestTelemetryDeterministicAcrossWorkerCounts(t *testing.T) {
	// The tentpole acceptance check: same campaign seed at -workers 1 and
	// -workers 8 yields byte-identical final counters and (sorted)
	// identical trace event streams. Counters commute because they are
	// integer atomic adds; traces match because each run owns its ring and
	// stamps events with virtual time.
	c1, t1 := runInstrumented(t, 42, 1)
	c8, t8 := runInstrumented(t, 42, 8)
	if c1 != c8 {
		t.Errorf("final counters differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", c1, c8)
	}
	if t1 != t8 {
		t.Errorf("sorted trace streams differ across worker counts")
	}
	if t1 == "" {
		t.Fatal("no trace events emitted")
	}
	// Spot-check that the stream actually exercised the instrumented paths.
	for _, kind := range []string{telemetry.EvProbeSent, telemetry.EvCensorAlert, telemetry.EvMVRDiscard} {
		if !strings.Contains(t1, `"name":"`+kind+`"`) {
			t.Errorf("trace stream has no %q events", kind)
		}
	}
	for _, name := range []string{
		"netsim_forwarded_total", "surveil_packets_seen_total",
		"censor_ids_packets_total", `campaign_runs_total{family="mimicry"}`,
	} {
		if !strings.Contains(c1, name) {
			t.Errorf("counter exposition missing %s:\n%s", name, c1)
		}
	}
}

func TestPoolMetricsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := smallPlan(t, 3)
	recs, err := Run(p, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var runs, correct int64
	for _, fam := range []string{"overt", "mimicry", "spoofed"} {
		runs += reg.Counter(telemetry.Labels("campaign_runs_total", "family", fam)).Value()
		correct += reg.Counter(telemetry.Labels("campaign_correct_total", "family", fam)).Value()
	}
	if runs != int64(len(p.Specs)) {
		t.Errorf("campaign_runs_total = %d, want %d", runs, len(p.Specs))
	}
	var wantCorrect int64
	for _, rec := range recs {
		if rec.Error == "" && rec.Correct {
			wantCorrect++
		}
	}
	if correct != wantCorrect {
		t.Errorf("campaign_correct_total = %d, want %d", correct, wantCorrect)
	}
	if got := reg.Gauge("campaign_queue_depth").Value(); got != 0 {
		t.Errorf("campaign_queue_depth after completion = %d, want 0", got)
	}
	if got := reg.Gauge("campaign_runs_inflight").Value(); got != 0 {
		t.Errorf("campaign_runs_inflight after completion = %d, want 0", got)
	}
	h := reg.Histogram("campaign_run_virtual_ms")
	if h.Count() != int64(len(p.Specs)) {
		t.Errorf("campaign_run_virtual_ms count = %d, want %d", h.Count(), len(p.Specs))
	}
}

func TestProgressTracksCells(t *testing.T) {
	p := smallPlan(t, 5) // dns-poison x 3 techniques x 2 trials
	prog := NewProgress(p)
	s := prog.Snapshot()
	if s.Planned != len(p.Specs) || s.Done != 0 {
		t.Fatalf("initial snapshot: planned=%d done=%d, want %d/0", s.Planned, s.Done, len(p.Specs))
	}
	if len(s.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(s.Cells))
	}
	prog.Record(RunRecord{Scenario: "dns-poison", Trial: 0, Correct: true,
		Record: recordFor("spam")})
	prog.Record(RunRecord{Scenario: "dns-poison", Trial: 1, Error: "boom",
		Record: recordFor("spam")})
	s = prog.Snapshot()
	if s.Done != 2 || s.Errors != 1 {
		t.Fatalf("snapshot after 2 records: done=%d errors=%d", s.Done, s.Errors)
	}
	for _, c := range s.Cells {
		if c.Technique != "spam" {
			if c.Done != 0 {
				t.Errorf("cell %s/%s done=%d, want 0", c.Scenario, c.Technique, c.Done)
			}
			continue
		}
		if c.Planned != 2 || c.Done != 2 || c.Correct != 1 || c.Errors != 1 {
			t.Errorf("spam cell = %+v", c)
		}
	}
}

func TestTraceSinkWritesSortableLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	rec := fakeRecord("open", "overt-dns", 1)
	sink.Trace(RunTrace{Scenario: "open", Technique: "overt-dns", Trial: 1, Seed: rec.Seed, Events: []telemetry.Event{
		{T: 100, Kind: telemetry.EvProbeSent, Src: "10.1.0.10", Dst: "203.0.113.53"},
		{T: 250, Kind: telemetry.EvTTLExpiry, Detail: "edge"},
	}})
	sink.Record(rec)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 3 {
		t.Fatalf("count = %d, want 3 (two trace rows, one verdict row)", sink.Count())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, want := range []string{`"type":"trace"`, `"type":"trace"`, `"type":"verdict"`} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("row %d is not %s; a run's trace rows lead its group:\n%s", i, want, buf.String())
		}
	}
	if !strings.Contains(lines[1], `"seq":1`) || !strings.Contains(lines[1], `"name":"`+telemetry.EvTTLExpiry+`"`) {
		t.Fatalf("trace rows lack sequence numbers or kinds:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], `"scenario":"open"`) || !strings.Contains(lines[0], `"technique":"overt-dns"`) {
		t.Fatalf("trace rows lack run coordinates:\n%s", buf.String())
	}
}
