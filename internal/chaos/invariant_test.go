package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
)

// invariantPlan is the matrix every interrupt scenario replays: one
// censoring scenario, its three applicable techniques, two trials — small
// enough to interrupt dozens of times, rich enough that the aggregate has
// real per-cell content to diverge on.
func invariantPlan(t *testing.T) *campaign.Plan {
	t.Helper()
	p, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"dns-poison"}, Trials: 2, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func keyLess(a, b campaign.DoneKey) bool {
	if a.Scenario != b.Scenario {
		return a.Scenario < b.Scenario
	}
	if a.Impairment != b.Impairment {
		return a.Impairment < b.Impairment
	}
	if a.Behavior != b.Behavior {
		return a.Behavior < b.Behavior
	}
	if a.Technique != b.Technique {
		return a.Technique < b.Technique
	}
	return a.Trial < b.Trial
}

// canonicalize reduces a record set to its scheduling-independent form:
// error-free records only (error records are resume fodder, not results),
// no duplicate coordinates allowed, sorted by coordinate, rendered as JSONL
// plus the aggregate tables built from exactly that order.
func canonicalize(t *testing.T, recs []campaign.RunRecord) (jsonl, agg string) {
	t.Helper()
	var ok []campaign.RunRecord
	seen := map[campaign.DoneKey]int{}
	for _, r := range recs {
		if r.Error != "" {
			continue
		}
		seen[r.Key()]++
		ok = append(ok, r)
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate run coordinate %+v: %d error-free records", k, n)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return keyLess(ok[i].Key(), ok[j].Key()) })
	lines := make([]string, len(ok))
	for i, r := range ok {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	return strings.Join(lines, "\n"), campaign.Aggregate(ok).Render()
}

// archivePath names a fresh campaign archive in a test-owned directory; the
// extension picks the encoding, as with cmd/campaign -out.
func archivePath(t *testing.T, ext string) string {
	return filepath.Join(t.TempDir(), "campaign"+ext)
}

// runToArchive runs plan (with ctx and opts) into a fresh archive at path,
// the way cmd/campaign -out does, and returns RunContext's result.
func runToArchive(ctx context.Context, t *testing.T, path string, plan *campaign.Plan,
	opts campaign.Options) ([]campaign.RunRecord, error) {
	t.Helper()
	sink, f, _, err := campaign.OpenArchive(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onRecord := opts.OnRecord
	opts.OnRecord = func(rec campaign.RunRecord) {
		if onRecord != nil {
			onRecord(rec)
		}
		sink.Record(rec)
	}
	recs, runErr := campaign.RunContext(ctx, plan, opts)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return recs, runErr
}

// readArchive reads every record of a campaign archive strictly.
func readArchive(t *testing.T, path string) []campaign.RunRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []campaign.RunRecord
	if err := campaign.ReadRecords(f, archival.TailStrict, nil, func(rec campaign.RunRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("archive unreadable: %v", err)
	}
	return recs
}

// resumeAndCheck finishes an interrupted campaign the way cmd/campaign
// -resume does — campaign.OpenArchive repairs the torn row, cuts the final
// run group, and hands back the done set; the Remaining plan appends —
// then asserts the three invariants: nothing lost, nothing duplicated, and
// the final records and aggregate byte-identical to the uninterrupted
// baseline.
func resumeAndCheck(t *testing.T, plan *campaign.Plan, workers int, path string,
	wantJSONL, wantAgg string) {
	t.Helper()
	sink, f, done, err := campaign.OpenArchive(path, true)
	if err != nil {
		t.Fatalf("resume open: %v", err)
	}
	rest := plan.Remaining(done)
	if len(rest.Specs) > 0 {
		if _, err := campaign.Run(rest, campaign.Options{Workers: workers, OnRecord: sink.Record}); err != nil {
			t.Fatalf("resume run: %v", err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("resume sink: %v", err)
	}
	f.Close()
	final := readArchive(t, path)
	gotJSONL, gotAgg := canonicalize(t, final)
	if done := campaign.DoneSet(final); len(done) != len(plan.Specs) {
		t.Fatalf("lost runs: %d of %d coordinates completed", len(done), len(plan.Specs))
	}
	if gotJSONL != wantJSONL {
		t.Fatalf("resumed records diverge from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			gotJSONL, wantJSONL)
	}
	if gotAgg != wantAgg {
		t.Fatalf("resumed aggregate diverges from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			gotAgg, wantAgg)
	}
}

// keepsPartialRun reports whether frame-level repair alone would let a
// wrong record through: the repaired wreck at path (left unmodified) holds
// a record differing from the baseline record of the same coordinates.
func keepsPartialRun(t *testing.T, path string, base []campaign.RunRecord) bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scratch := path + ".repaired"
	if err := os.WriteFile(scratch, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(scratch)
	if _, err := archival.Repair(scratch); err != nil {
		t.Fatal(err)
	}
	want := map[campaign.DoneKey]campaign.RunRecord{}
	for _, r := range base {
		want[r.Key()] = r
	}
	for _, r := range readArchive(t, scratch) {
		if !reflect.DeepEqual(r, want[r.Key()]) {
			return true
		}
	}
	return false
}

// TestInterruptResumeInvariant interrupts a campaign at ≥20 seeded points —
// context cancel mid-stream, sink write errors and torn short writes at
// seeded byte offsets, executor panics and hangs on seeded schedules — then
// resumes each wreck and requires the final output to be byte-identical to
// an uninterrupted run, at workers 1 and 8. Run it under -race: the drain,
// claim-gate, and callback-guard paths are all concurrent.
func TestInterruptResumeInvariant(t *testing.T) {
	plan := invariantPlan(t)
	nspecs := len(plan.Specs)

	// The baseline is computed once at workers=1; every (mode, workers,
	// seed) cell must reproduce it, which also re-proves worker-count
	// determinism along the way.
	basePath := archivePath(t, ".jsonl")
	baseRecs, err := runToArchive(context.Background(), t, basePath, plan, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL, wantAgg := canonicalize(t, baseRecs)
	baseInfo, err := os.Stat(basePath)
	if err != nil {
		t.Fatal(err)
	}
	archiveSize := baseInfo.Size()
	// The sinkfail points are drawn over the baseline's records rendered as
	// JSON lines and scaled onto the archive, so each seeded point sits at
	// the same fraction of the campaign's output whatever the encoding.
	var recordBytes int64
	for _, r := range baseRecs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		recordBytes += int64(len(raw)) + 1
	}
	partialShorts := 0
	const ext = ".jsonl"

	points := 0
	for _, workers := range []int{1, 8} {
		workers := workers

		// Mode 1: context cancel after a seeded number of records, full
		// drain (negative grace), resume the undispatched tail.
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			cut := 1 + rng.Intn(nspecs)
			points++
			t.Run(fmt.Sprintf("cancel/workers=%d/cut=%d", workers, cut), func(t *testing.T) {
				path := archivePath(t, ext)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := runToArchive(ctx, t, path, plan, campaign.Options{
					Workers:  workers,
					Grace:    -1,
					OnRecord: CancelAfter(cut, cancel),
				})
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}

		// Mode 2: the sink's stream dies at a seeded byte offset — hard
		// error and torn short write. The campaign itself completes; the
		// file loses its tail; resume must regenerate exactly the lost runs.
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(2000 + seed))
			failAfter := rng.Int63n(recordBytes)
			short := seed%2 == 1
			points++
			t.Run(fmt.Sprintf("sinkfail/workers=%d/at=%d/short=%v", workers, failAfter, short),
				func(t *testing.T) {
					path := archivePath(t, ".jsonl")
					f, err := os.Create(path)
					if err != nil {
						t.Fatal(err)
					}
					fw := &FlakyWriter{W: f, FailAfter: failAfter * archiveSize / recordBytes, Short: short}
					sink := campaign.NewObservationSink(archival.NewJSONLWriter(fw))
					sink.SyncEvery(1) // every run's group hits the flaky stream immediately
					if _, err := campaign.Run(plan, campaign.Options{
						Workers: workers, OnRecord: sink.Record,
					}); err != nil {
						t.Fatal(err)
					}
					if err := sink.Flush(); err == nil && fw.Failed() {
						t.Fatal("sink swallowed the injected failure")
					}
					f.Close()
					if short && keepsPartialRun(t, path, baseRecs) {
						partialShorts++
					}
					resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
				})
		}

		// Mode 3: the executor panics on a seeded schedule; panicked runs
		// become error records that resume must re-execute.
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(3000 + seed))
			every := 1 + rng.Intn(4)
			points++
			t.Run(fmt.Sprintf("panic/workers=%d/every=%d", workers, every), func(t *testing.T) {
				path := archivePath(t, ".jsonl")
				if _, err := runToArchive(context.Background(), t, path, plan, campaign.Options{
					Workers: workers,
					Execute: PanicEvery(every, nil),
				}); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}

		// Mode 4: the executor wedges past the pool timeout on a seeded
		// schedule; abandoned runs become timeout error records (publishing
		// nothing, by the claim gate) that resume re-executes.
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(4000 + seed))
			every := 2 + rng.Intn(3)
			points++
			t.Run(fmt.Sprintf("hang/workers=%d/every=%d", workers, every), func(t *testing.T) {
				path := archivePath(t, ".jsonl")
				if _, err := runToArchive(context.Background(), t, path, plan, campaign.Options{
					Workers: workers,
					Timeout: 30 * time.Millisecond,
					Execute: HangEvery(every, 200*time.Millisecond, nil),
				}); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}
	}
	if points < 20 {
		t.Fatalf("only %d seeded interrupt points exercised, want >= 20", points)
	}
	if partialShorts == 0 {
		t.Fatal("no short write left a partial run group; the sinkfail mode lost its teeth")
	}
}

// TestInterruptResumeInvariantAdversarialCensor repeats the interrupt/resume
// invariant with the censor itself misbehaving: the plan sweeps every
// adversarial censor-behavior preset, campaigns are interrupted at seeded
// points, and the resumed output must still be byte-identical to an
// uninterrupted run. This is the episode that proves behavior state
// (intermittent flow decisions, throttle token buckets, injector budgets)
// lives entirely inside each run's lab — a resumed run re-derives it from
// the seed, never from process state the interrupt destroyed.
func TestInterruptResumeInvariantAdversarialCensor(t *testing.T) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"keyword-rst"}, Behaviors: []string{"all"},
		Trials: 1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	nspecs := len(plan.Specs)
	if nspecs < 12 {
		t.Fatalf("behavior sweep too small: %d specs", nspecs)
	}

	baseRecs, err := campaign.Run(plan, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL, wantAgg := canonicalize(t, baseRecs)

	const ext = ".bin" // the binary encoding resumes through the same path
	for _, workers := range []int{1, 8} {
		workers := workers
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(7000 + seed))
			cut := 1 + rng.Intn(nspecs)
			t.Run(fmt.Sprintf("cancel/workers=%d/cut=%d", workers, cut), func(t *testing.T) {
				path := archivePath(t, ext)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := runToArchive(ctx, t, path, plan, campaign.Options{
					Workers:  workers,
					Grace:    -1,
					OnRecord: CancelAfter(cut, cancel),
				})
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}
	}
}

// TestCancelBeforeDispatchRunsNothing pins the degenerate interrupt point:
// a context canceled before RunContext is even called dispatches nothing,
// and the resume plan is the entire campaign.
func TestCancelBeforeDispatchRunsNothing(t *testing.T) {
	plan := invariantPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, err := campaign.RunContext(ctx, plan, campaign.Options{
		Workers: 4,
		Execute: stubExec,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(recs) != 0 {
		t.Fatalf("pre-canceled campaign ran %d specs, want 0", len(recs))
	}
	rest := plan.Remaining(campaign.DoneSet(recs))
	if len(rest.Specs) != len(plan.Specs) {
		t.Fatalf("resume plan %d specs, want the full %d", len(rest.Specs), len(plan.Specs))
	}
}
