package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
)

// legacyRuns is a small run set covering every record shape: a plain
// verdict, one with cover addresses and evidence, a risk-scored one, and an
// error record.
func legacyRuns() []campaign.RunRecord {
	var recs []campaign.RunRecord
	add := func(scenario, technique string, trial int, edit func(*campaign.RunRecord)) {
		rec := campaign.RunRecord{Scenario: scenario, Trial: trial}
		rec.Technique = technique
		rec.Seed = int64(100 + trial)
		rec.Verdict = "censored"
		rec.Mechanism = "tcp-rst"
		rec.Target = "site01.test"
		rec.GroundTruth = true
		rec.Correct = true
		rec.Attempts = 1
		if edit != nil {
			edit(&rec)
		}
		recs = append(recs, rec)
	}
	add("keyword-rst", "overt-http", 0, nil)
	add("keyword-rst", "spam", 1, func(r *campaign.RunRecord) {
		r.Stealth = true
		r.Cover = 2
		r.CoverAddresses = []string{"10.1.0.7", "10.1.0.9"}
		r.Evidence = []string{"rst after GET", "ttl mismatch"}
		r.Confidence = 0.75
	})
	add("dns-poison", "overt-dns", 0, func(r *campaign.RunRecord) {
		r.Verdict, r.Mechanism = "accessible", ""
		r.GroundTruth, r.Correct = false, false
		r.Score, r.Alerts, r.Flagged = 3.5, 2, true
		r.Entropy, r.Implicated, r.Retained = 1.25, 4, true
	})
	add("dns-poison", "spam", 2, func(r *campaign.RunRecord) {
		*r = campaign.RunRecord{Scenario: r.Scenario, Trial: r.Trial, Error: "spam never completed"}
		r.Technique, r.Seed = "spam", 102
	})
	return recs
}

// writeLegacyAndArchive writes runs as the per-line record JSONL earlier
// campaign versions produced and as the observation archive this version
// writes, returning both paths.
func writeLegacyAndArchive(t *testing.T, runs []campaign.RunRecord) (legacy, archive string) {
	t.Helper()
	dir := t.TempDir()
	var lines bytes.Buffer
	for _, rec := range runs {
		line, err := archival.MarshalLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(line)
	}
	legacy = filepath.Join(dir, "legacy.jsonl")
	if err := os.WriteFile(legacy, lines.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var rows bytes.Buffer
	sink := campaign.NewObservationSink(archival.NewJSONLWriter(&rows))
	for _, rec := range runs {
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	archive = filepath.Join(dir, "archive.jsonl")
	if err := os.WriteFile(archive, rows.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return legacy, archive
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestLegacyRecordJSONLConvertsToArchive: convert must migrate record JSONL
// to exactly the observation archive the campaign writes for the same runs.
func TestLegacyRecordJSONLConvertsToArchive(t *testing.T) {
	legacy, archive := writeLegacyAndArchive(t, legacyRuns())
	converted := filepath.Join(t.TempDir(), "converted.jsonl")
	if err := cmdConvert([]string{"-strict", "-o", converted, legacy}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(converted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("converted legacy file differs from the archive:\n got %s\nwant %s", got, want)
	}
}

// TestLegacyRecordJSONLSummarizesLikeArchive: summarize must read record
// JSONL and report exactly what it reports for the same runs' archive.
func TestLegacyRecordJSONLSummarizesLikeArchive(t *testing.T) {
	legacy, archive := writeLegacyAndArchive(t, legacyRuns())
	fromLegacy := captureStdout(t, func() error { return cmdSummarize([]string{"-strict", legacy}) })
	fromArchive := captureStdout(t, func() error { return cmdSummarize([]string{"-strict", archive}) })
	if !strings.Contains(fromLegacy, "3 completed runs, 1 errors") {
		t.Fatalf("legacy summary miscounted runs:\n%s", fromLegacy)
	}
	fromLegacy = strings.ReplaceAll(fromLegacy, legacy, "FILE")
	fromArchive = strings.ReplaceAll(fromArchive, archive, "FILE")
	if fromLegacy != fromArchive {
		t.Fatalf("summaries differ:\nlegacy:\n%s\narchive:\n%s", fromLegacy, fromArchive)
	}
}
