package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

// randRunRecord samples the RunRecord space, including sparse corners: error
// records (all measurement fields zero), empty slices, and zero floats.
func randRunRecord(rng *rand.Rand) RunRecord {
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	rec := RunRecord{
		Scenario:   pick("open", "keyword-rst", "dns-poison"),
		Impairment: pick("", "lossy20", "jitter"),
		Trial:      rng.Intn(500),
		Record: core.Record{
			Technique: pick("direct", "vpn-relay", "spoofed-dns", "spoofed-smtp"),
			Seed:      rng.Int63(),
		},
	}
	if rng.Intn(8) == 0 {
		// Failed run: identity plus error, nothing else.
		rec.Error = pick("lab: link down", "panic: index out of range", "timeout")
		return rec
	}
	rec.Target = "198.51.100.7:80"
	rec.Stealth = rng.Intn(2) == 0
	rec.Verdict = pick("censored", "accessible", "inconclusive")
	rec.Mechanism = pick("", "tcp-rst", "dns-nxdomain")
	rec.Probes = rng.Intn(10)
	rec.Cover = rng.Intn(10)
	rec.Attempts = 1 + rng.Intn(3)
	for i := 0; i < rng.Intn(4); i++ {
		rec.CoverAddresses = append(rec.CoverAddresses, fmt.Sprintf("203.0.113.%d", i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		rec.Evidence = append(rec.Evidence, pick("rst seen", "empty answer", "truncated reply"))
	}
	rec.ElapsedMS = float64(rng.Intn(100000)) / 8
	rec.Retained = rng.Intn(2) == 0
	rec.Alerts = rng.Intn(5)
	rec.Score = float64(rng.Intn(80)) / 4
	rec.Entropy = float64(rng.Intn(32)) / 8
	rec.Implicated = rng.Intn(6)
	rec.Flagged = rng.Intn(2) == 0
	rec.GroundTruth = rng.Intn(2) == 0
	rec.Correct = rng.Intn(2) == 0
	return rec
}

// TestFlattenUnflattenRoundTrip is the core archival property: record →
// observations → record is the identity, for sparse and dense records alike.
func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		want := randRunRecord(rng)
		obs := FlattenRecord(want)
		got, err := UnflattenRecord(obs)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rec %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestFlattenRoundTripThroughBinary runs the full pipeline: record →
// observations → binary encoding → observations → record.
func TestFlattenRoundTripThroughBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs []RunRecord
	var buf bytes.Buffer
	w := archival.NewBinaryWriter(&buf)
	sink := NewObservationSink(w)
	for i := 0; i < 50; i++ {
		rec := randRunRecord(rng)
		recs = append(recs, rec)
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := readRecords(t, &buf); !reflect.DeepEqual(got, recs) {
		t.Fatalf("pipeline round trip diverged: got %d records, want %d", len(got), len(recs))
	}
}

// TestFlattenRowIdentity checks every row carries the run's full cell
// identity and a unique content-derived observation ID.
func TestFlattenRowIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rec := randRunRecord(rng)
	rec.CoverAddresses = []string{"203.0.113.1", "203.0.113.2"}
	rec.Evidence = []string{"rst seen"}
	obs := FlattenRecord(rec)
	if len(obs) == 0 {
		t.Fatal("no rows")
	}
	run := archival.RunID(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
	seen := map[uint64]bool{}
	for _, o := range obs {
		if o.Run != run {
			t.Fatalf("row %+v has run %d, want %d", o, o.Run, run)
		}
		if o.Technique != rec.Technique || o.Scenario != rec.Scenario ||
			o.Impairment != rec.Impairment || o.Trial != rec.Trial || o.Seed != rec.Seed {
			t.Fatalf("row %+v lost cell identity", o)
		}
		if o.ID == 0 || seen[o.ID] {
			t.Fatalf("row %+v has duplicate or zero id", o)
		}
		seen[o.ID] = true
		if o.ID != archival.ObservationID(o.Run, o.Type, o.Seq) {
			t.Fatalf("row %+v id not content-derived", o)
		}
	}
}

// TestUnflattenRejectsMixedRuns guards the batch-grouping invariant.
func TestUnflattenRejectsMixedRuns(t *testing.T) {
	a := FlattenRecord(RunRecord{Scenario: "open", Trial: 1,
		Record: core.Record{Technique: "direct", Seed: 1, Verdict: "accessible"}})
	b := FlattenRecord(RunRecord{Scenario: "open", Trial: 2,
		Record: core.Record{Technique: "direct", Seed: 2, Verdict: "censored"}})
	if _, err := UnflattenRecord(append(a, b...)); err == nil {
		t.Fatal("mixed-run batch accepted")
	}
	if _, err := UnflattenRecord(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestUnflattenAnyOrder: rows may arrive in any order (e.g. after a sort by
// type in an analysis pipeline) and still reconstruct the record.
func TestUnflattenAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	want := randRunRecord(rng)
	want.Error = ""
	want.CoverAddresses = []string{"a", "b", "c"}
	want.Evidence = []string{"x", "y"}
	obs := FlattenRecord(want)
	rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
	got, err := UnflattenRecord(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlattenTraceJoinsRecordRun: trace rows share the record rows' run ID
// for the same cell.
func TestFlattenTraceJoinsRecordRun(t *testing.T) {
	rec := RunRecord{Scenario: "open", Impairment: "lossy20", Trial: 7,
		Record: core.Record{Technique: "spoofed-dns", Seed: 99, Verdict: "censored"}}
	rt := RunTrace{Scenario: "open", Impairment: "lossy20", Technique: "spoofed-dns",
		Trial: 7, Seed: 99,
		Events: []telemetry.Event{
			{T: 10, Kind: "probe-sent", Src: "10.0.0.1", Dst: "198.51.100.7", Detail: "GET /"},
			{T: 20, Kind: "rst-seen", Src: "198.51.100.7", Dst: "10.0.0.1"},
		}}
	recObs := FlattenRecord(rec)
	trObs := FlattenTrace(rt)
	if len(trObs) != 2 {
		t.Fatalf("trace rows = %d, want 2", len(trObs))
	}
	if recObs[0].Run != trObs[0].Run {
		t.Fatalf("trace run %d != record run %d", trObs[0].Run, recObs[0].Run)
	}
	for i, o := range trObs {
		if o.Type != archival.TypeTrace || o.Seq != i {
			t.Fatalf("trace row %d: %+v", i, o)
		}
	}
	// Trace rows mixed into a record batch are ignored by UnflattenRecord.
	got, err := UnflattenRecord(append(recObs, trObs...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("got %+v want %+v", got, rec)
	}
}

// TestCutRunTailLeavesOnlyWholeRuns is the resume rule's regression test.
// A multi-run archive, in each encoding, is cut at every byte offset inside
// its last two run groups — every wreck a kill can leave. Repair plus
// CutRunTail must leave the file on a run-group boundary with every record
// reading back equal to an original. Frame-level Repair alone must
// not pass: somewhere a cut row prefix reads back as a wrong record.
func TestCutRunTailLeavesOnlyWholeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var recs []RunRecord
	var traces []RunTrace
	for i := 0; i < 3; i++ {
		rec := randRunRecord(rng)
		rec.Trial = i                               // distinct runs
		rec.CoverAddresses, rec.Evidence = nil, nil // keeps the byte sweep short
		recs = append(recs, rec)
		rt := RunTrace{Scenario: rec.Scenario, Impairment: rec.Impairment, Technique: rec.Technique,
			Trial: rec.Trial, Seed: rec.Seed}
		for j := 0; j < i; j++ {
			rt.Events = append(rt.Events, telemetry.Event{T: int64(10 * (j + 1)), Kind: "probe-sent", Detail: "GET /"})
		}
		traces = append(traces, rt)
	}
	path := filepath.Join(t.TempDir(), "wreck")
	for _, format := range []archival.Format{archival.FormatJSONL, archival.FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			var full bytes.Buffer
			sink := NewObservationSink(archival.NewWriter(&full, format))
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			bounds := map[int64]bool{int64(full.Len()): true} // after the header
			var starts []int64
			for i := range recs {
				starts = append(starts, int64(full.Len()))
				sink.Trace(traces[i])
				sink.Record(recs[i])
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				bounds[int64(full.Len())] = true
			}
			wrongAfterRepairOnly := 0
			for off := starts[len(starts)-2]; off <= int64(full.Len()); off++ {
				for _, cut := range []bool{false, true} {
					if !cut && wrongAfterRepairOnly > 0 {
						continue // the repair-only control has already failed once
					}
					if err := os.WriteFile(path, full.Bytes()[:off], 0o644); err != nil {
						t.Fatal(err)
					}
					if _, err := archival.Repair(path); err != nil {
						t.Fatalf("off %d: repair: %v", off, err)
					}
					if cut {
						if _, err := CutRunTail(path, func([]archival.Observation) bool { return true }); err != nil {
							t.Fatalf("off %d: cut: %v", off, err)
						}
					}
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					wrong := 0
					if err := ReadRecords(bytes.NewReader(raw), archival.TailStrict, nil, func(rec RunRecord) error {
						if rec.Trial < 0 || rec.Trial >= len(recs) || !reflect.DeepEqual(rec, recs[rec.Trial]) {
							wrong++
						}
						return nil
					}); err != nil {
						t.Fatalf("off %d cut=%v: %v", off, cut, err)
					}
					if !cut {
						wrongAfterRepairOnly += wrong
						continue
					}
					if wrong > 0 {
						t.Fatalf("off %d: %d records read back wrong after repair and cut", off, wrong)
					}
					if n := int64(len(raw)); !bounds[n] || n > off {
						t.Fatalf("off %d: file ends at %d, not on a run-group boundary at or before the cut", off, n)
					}
				}
			}
			if wrongAfterRepairOnly == 0 {
				t.Fatal("frame-level repair alone never kept a partial run; the test lost its teeth")
			}
		})
	}
}

// TestReadRecordsSplitsRepeatedRun: a run written twice in a row (an error
// record and then its re-run, or the same record again) must read back as
// two records, not one merged record, traced or not.
func TestReadRecordsSplitsRepeatedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := randRunRecord(rng)
	full.CoverAddresses = []string{"10.0.0.1", "10.0.0.2"}
	full.Evidence = []string{"rst", "ttl"}
	full.Error = ""
	failed := RunRecord{Scenario: full.Scenario, Impairment: full.Impairment, Behavior: full.Behavior,
		Trial: full.Trial, Error: "timeout"}
	failed.Technique, failed.Seed = full.Technique, full.Seed
	rt := RunTrace{Scenario: full.Scenario, Impairment: full.Impairment, Behavior: full.Behavior,
		Technique: full.Technique, Trial: full.Trial, Seed: full.Seed,
		Events: []telemetry.Event{{T: 1, Kind: "probe-sent"}, {T: 2, Kind: "reply"}}}
	for _, tc := range []struct {
		name   string
		recs   []RunRecord
		traced bool
	}{
		{"same record twice", []RunRecord{full, full}, false},
		{"same record twice, traced", []RunRecord{full, full}, true},
		{"error then re-run", []RunRecord{failed, full}, false},
		{"error then re-run, traced", []RunRecord{failed, full}, true},
		{"error twice", []RunRecord{failed, failed}, false},
	} {
		for _, format := range []archival.Format{archival.FormatJSONL, archival.FormatBinary} {
			t.Run(tc.name+"/"+format.String(), func(t *testing.T) {
				var buf bytes.Buffer
				sink := NewObservationSink(archival.NewWriter(&buf, format))
				for _, rec := range tc.recs {
					if tc.traced {
						sink.Trace(rt)
					}
					sink.Record(rec)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				var got []RunRecord
				if err := ReadRecords(&buf, archival.TailStrict, nil, func(rec RunRecord) error {
					got = append(got, rec)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.recs) {
					t.Fatalf("read back:\n got %+v\nwant %+v", got, tc.recs)
				}
			})
		}
	}
}
