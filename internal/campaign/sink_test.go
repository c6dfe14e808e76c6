package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

// fakeRecord builds a record that flattens to exactly one (verdict) row.
func fakeRecord(scenario, technique string, trial int) RunRecord {
	rec := RunRecord{Scenario: scenario, Trial: trial}
	rec.Technique = technique
	rec.Seed = int64(trial)
	rec.Verdict = "censored"
	rec.Correct = true
	return rec
}

// readRecords reads every record of an archive stream strictly.
func readRecords(t *testing.T, r io.Reader) []RunRecord {
	t.Helper()
	var recs []RunRecord
	if err := ReadRecords(r, archival.TailStrict, nil, func(rec RunRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeArchiveFile writes recs as a JSONL archive at a fresh path.
func writeArchiveFile(t *testing.T, recs ...RunRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	sink, f, _, err := OpenArchive(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJSONLSinkRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	want := []RunRecord{
		fakeRecord("dns-poison", "spam", 0),
		fakeRecord("dns-poison", "spam", 1),
		fakeRecord("open", "overt-dns", 0),
	}
	for _, rec := range want {
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != len(want) {
		t.Fatalf("count = %d rows, want %d", sink.Count(), len(want))
	}
	if got := readRecords(t, &buf); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestJSONLSinkConcurrentWrites(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := fakeRecord("open", "spam", i)
			rec.Evidence = []string{"a", "b", "c"} // multi-row groups
			sink.Record(rec)
		}(i)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := readRecords(t, &buf)
	if len(recs) != n {
		t.Fatalf("read %d records, want %d: run groups interleaved", len(recs), n)
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.Trial] || len(r.Evidence) != 3 {
			t.Fatalf("trial %d written twice or split: %+v", r.Trial, r)
		}
		seen[r.Trial] = true
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	row := `{"id":"1","run":"7","type":"verdict","technique":"spam","scenario":"open","trial":0,"seed":0,"name":"censored"}`
	err := ReadRecords(strings.NewReader(row+"\nnot json\n"), archival.TailStrict, nil,
		func(RunRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse failure", err)
	}
	if recs := readRecords(t, strings.NewReader("")); len(recs) != 0 {
		t.Fatalf("empty stream yielded %v", recs)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	sink := NewObservationSink(archival.NewJSONLWriter(&failWriter{after: 1})) // room for less than one row
	for i := 0; i < 100; i++ {
		sink.Record(fakeRecord("open", "spam", i))
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("sink swallowed the write error")
	}
}

func TestReadJSONLResumeSkipsTruncatedTail(t *testing.T) {
	want := []RunRecord{fakeRecord("dns-poison", "spam", 0), fakeRecord("dns-poison", "spam", 1)}
	path := writeArchiveFile(t, want...)
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A campaign killed mid-write leaves a partial final row.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"3","run":"9","type":"verd`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The strict reader rejects the torn row.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadRecords(bytes.NewReader(raw), archival.TailStrict, nil,
		func(RunRecord) error { return nil }); err == nil {
		t.Fatal("strict ReadRecords accepted a torn row")
	}

	// Resume cuts the torn row, then the final whole run, and appends
	// after the first run.
	sink, f, done, err := OpenArchive(path, true)
	if err != nil {
		t.Fatalf("resume open failed: %v", err)
	}
	defer f.Close()
	if len(done) != 1 || !done[want[0].Key()] {
		t.Fatalf("done = %v, want just %+v", done, want[0].Key())
	}
	sink.Record(want[1])
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != whole.Size() {
		t.Fatalf("resumed file is %d bytes, want the uninterrupted %d", len(raw), whole.Size())
	}
	if got := readRecords(t, bytes.NewReader(raw)); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed records:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadJSONLResumeRejectsMidFileCorruption(t *testing.T) {
	path := writeArchiveFile(t, fakeRecord("open", "overt-dns", 0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "not json at all")
	f.Close()
	tail := writeArchiveFile(t, fakeRecord("open", "overt-dns", 1))
	more, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(more)
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, _, err := OpenArchive(path, true); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected resume modified the file")
	}
}

func TestReadJSONLResumeCleanFile(t *testing.T) {
	want := []RunRecord{fakeRecord("open", "overt-dns", 0), fakeRecord("open", "overt-tcp", 0)}
	path := writeArchiveFile(t, want...)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Even a clean file loses its final run group: content cannot prove
	// the group whole, and the re-run is byte-identical.
	sink, f, done, err := OpenArchive(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(done) != 1 || !done[want[0].Key()] {
		t.Fatalf("done = %v, want just %+v", done, want[0].Key())
	}
	sink.Record(want[1])
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("cut and re-append changed the file:\n%s\nvs\n%s", before, after)
	}
}

func TestResumeKeepsErrorRunApartFromRerun(t *testing.T) {
	good := fakeRecord("open", "overt-dns", 0)
	failed := fakeRecord("open", "overt-dns", 1)
	failed.Verdict, failed.Correct, failed.Error = "", false, "timeout"
	last := fakeRecord("open", "overt-dns", 2)
	path := writeArchiveFile(t, good, failed, last)

	// Only the final run is cut. The error run stays, out of the done set,
	// and its re-run lands right after it without merging into it.
	sink, f, done, err := OpenArchive(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(done) != 1 || !done[good.Key()] {
		t.Fatalf("done = %v, want just %+v", done, good.Key())
	}
	retried := failed
	retried.Verdict, retried.Correct, retried.Error = "censored", true, ""
	sink.Record(retried)
	sink.Record(last)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []RunRecord{good, failed, retried, last}
	if got := readRecords(t, bytes.NewReader(raw)); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed records:\n got %+v\nwant %+v", got, want)
	}
}

// TestResumeRefusesLegacyRecordJSONL: earlier versions wrote one record
// object per line, which decodes into observations with no run ID or type.
// Resume must refuse such a file before cutting anything.
func TestResumeRefusesLegacyRecordJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	var legacy bytes.Buffer
	for i := 0; i < 3; i++ {
		line, err := archival.MarshalLine(fakeRecord("dns-poison", "spam", i))
		if err != nil {
			t.Fatal(err)
		}
		legacy.Write(line)
	}
	if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenArchive(path, true)
	if err == nil || !strings.Contains(err.Error(), "measanalyze convert") {
		t.Fatalf("resume on record JSONL: err = %v, want a refusal naming measanalyze convert", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, legacy.Bytes()) {
		t.Fatal("a refused resume modified the file")
	}
}

// TestCutRunTailRefusesForeignEncoding: rows that decode fine but were not
// written by an ObservationSink (here, reformatted the way a JSON tool
// might) do not re-encode to the file's bytes, so the cut offset would be
// wrong. CutRunTail must refuse and leave the file alone.
func TestCutRunTailRefusesForeignEncoding(t *testing.T) {
	path := writeArchiveFile(t, fakeRecord("open", "overt-dns", 0), fakeRecord("open", "overt-dns", 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spaced := bytes.ReplaceAll(raw, []byte(`,"`), []byte(`, "`))
	if err := os.WriteFile(path, spaced, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(readRecords(t, bytes.NewReader(spaced))) != 2 {
		t.Fatal("the reformatted archive should still read back")
	}
	if cut, err := CutRunTail(path, func([]archival.Observation) bool { return true }); err == nil || cut {
		t.Fatalf("CutRunTail on a reformatted archive: cut=%v err=%v, want a refusal", cut, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, spaced) {
		t.Fatal("a refused cut modified the file")
	}
}

// syncWriter records flush visibility and Sync calls — a stand-in for
// *os.File in durability tests.
type syncWriter struct {
	buf   bytes.Buffer
	syncs int
}

func (w *syncWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *syncWriter) Sync() error                 { w.syncs++; return nil }

func TestJSONLSinkSyncEveryBoundsLoss(t *testing.T) {
	w := &syncWriter{}
	sink := NewObservationSink(archival.NewJSONLWriter(w))
	sink.SyncEvery(2)
	reg := telemetry.NewRegistry()
	sink.Instrument(reg, "archive")

	for i := 0; i < 5; i++ {
		sink.Record(fakeRecord("open", "spam", i))
	}
	// Without calling Flush, 4 of the 5 one-row records (two SyncEvery
	// batches) must already be durable: visible in the writer AND synced.
	if recs := readRecords(t, bytes.NewReader(w.buf.Bytes())); len(recs) != 4 {
		t.Fatalf("pre-Flush durable records = %d, want 4 (SyncEvery 2 after 5 writes)", len(recs))
	}
	if w.syncs != 2 {
		t.Fatalf("syncs = %d, want 2", w.syncs)
	}
	if got := reg.Counter(telemetry.Labels("campaign_sink_sync_total", "sink", "archive")).Value(); got != 2 {
		t.Fatalf("campaign_sink_sync_total = %d, want 2", got)
	}
	// Final Flush drains the straggler and syncs once more.
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if recs := readRecords(t, bytes.NewReader(w.buf.Bytes())); len(recs) != 5 {
		t.Fatalf("post-Flush records = %d, want 5", len(recs))
	}
	if w.syncs != 3 {
		t.Fatalf("syncs after Flush = %d, want 3", w.syncs)
	}
	if got := reg.Counter(telemetry.Labels("campaign_sink_flush_total", "sink", "archive")).Value(); got != 3 {
		t.Fatalf("campaign_sink_flush_total = %d, want 3", got)
	}
}

func TestJSONLSinkSyncEveryDisabledBuffers(t *testing.T) {
	w := &syncWriter{}
	sink := NewObservationSink(archival.NewJSONLWriter(w))
	sink.Record(fakeRecord("open", "spam", 0))
	if w.buf.Len() != 0 {
		t.Fatal("record escaped the bufio layer without SyncEvery or Flush")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 0 {
		t.Fatalf("plain Flush synced %d times; sync is the SyncEvery contract", w.syncs)
	}
}

func TestTraceSinkSyncEvery(t *testing.T) {
	w := &syncWriter{}
	sink := NewObservationSink(archival.NewJSONLWriter(w))
	sink.SyncEvery(3)
	events := []telemetry.Event{{T: 1, Kind: "probe"}, {T: 2, Kind: "alert"}}
	for trial := 0; trial < 2; trial++ {
		rec := fakeRecord("open", "spam", trial)
		sink.Trace(RunTrace{Scenario: "open", Technique: "spam", Trial: trial, Seed: rec.Seed, Events: events})
		if lines := strings.Count(w.buf.String(), "\n"); lines != 3*trial {
			t.Fatalf("trial %d: trace rows reached the file before the run's record (%d lines)", trial, lines)
		}
		// The run's 2 trace rows and 1 record row land as one 3-row batch,
		// which meets the threshold: the whole group becomes durable.
		sink.Record(rec)
		if lines := strings.Count(w.buf.String(), "\n"); lines != 3*(trial+1) || w.syncs != trial+1 {
			t.Fatalf("trial %d: %d durable lines, %d syncs; want %d lines, %d syncs",
				trial, lines, w.syncs, 3*(trial+1), trial+1)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 6 {
		t.Fatalf("count = %d, want 6", sink.Count())
	}
	if recs := readRecords(t, bytes.NewReader(w.buf.Bytes())); len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
}
