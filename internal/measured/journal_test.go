package measured

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/chaos"
	"safemeasure/internal/telemetry"
)

// durSpec builds the i-th spec of the durability tests' two-cell-family
// matrix; distinct i gives a distinct CellKey.
func durSpec(i int) campaign.RunSpec {
	fams := [...]struct{ t, s string }{
		{"overt-dns", "dns-poison"},
		{"overt-http", "keyword-rst"},
	}
	f := fams[i%len(fams)]
	return campaign.RunSpec{Technique: f.t, Scenario: f.s,
		Trial: i / len(fams), Seed: int64(1000 + i)}
}

// richRec fills a deterministic record for spec exercising every flatten
// column. All values derive from integer math (dyadic fractions for the
// floats), so the flatten → archive → unflatten round trip is bit-exact.
func richRec(spec campaign.RunSpec) campaign.RunRecord {
	rec := campaign.RunRecord{
		Scenario:    spec.Scenario,
		Trial:       spec.Trial,
		GroundTruth: spec.Seed%2 == 0,
		Correct:     spec.Seed%3 != 0,
	}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	rec.Target = "198.51.100.7:53"
	rec.Stealth = spec.Trial%2 == 1
	rec.Verdict = "censored"
	if spec.Seed%2 != 0 {
		rec.Verdict = "uncensored"
	}
	rec.Mechanism = "dns-injection"
	rec.Probes = 1 + spec.Trial%4
	rec.Cover = spec.Trial % 3
	rec.Attempts = 1 + spec.Trial%2
	if rec.Cover > 0 {
		rec.CoverAddresses = []string{fmt.Sprintf("10.0.0.%d", spec.Seed%200)}
	}
	rec.Evidence = []string{
		fmt.Sprintf("evidence-%d-a", spec.Seed),
		fmt.Sprintf("evidence-%d-b", spec.Seed),
	}
	rec.ElapsedMS = float64(spec.Seed%977) / 4
	rec.Retained = spec.Seed%5 == 0
	rec.Alerts = int(spec.Seed % 3)
	rec.Score = float64(spec.Seed%100) / 8
	rec.Entropy = float64(spec.Seed%50) / 16
	rec.Implicated = int(spec.Seed % 7)
	rec.Flagged = rec.Score > 10
	return rec
}

// richExec is an instant executor returning richRec for every spec.
func richExec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	claim()
	return richRec(spec)
}

func mustOpenStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	st, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return st
}

// journalFrames reads the raw journal frames back through the shared
// archival reader.
func journalFrames(t *testing.T, path string) []archival.Observation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	rd, err := archival.NewReader(f, archival.TailTolerate, nil)
	if err != nil {
		t.Fatalf("journal reader: %v", err)
	}
	var out []archival.Observation
	for {
		o, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("journal read: %v", err)
		}
		out = append(out, o)
	}
}

func TestStoreReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "wal")
	specs := []campaign.RunSpec{durSpec(0), durSpec(1), durSpec(2), durSpec(3)}

	st := mustOpenStore(t, StoreConfig{Journal: jp, FsyncAdmits: true})
	if err := st.JournalAdmit("alice", specs[:3]); err != nil {
		t.Fatalf("JournalAdmit: %v", err)
	}
	if err := st.JournalAdmit("bob", specs[3:]); err != nil {
		t.Fatalf("JournalAdmit: %v", err)
	}
	if err := st.Complete(richRec(specs[1])); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The raw journal still holds the full history: 4 admits + 1 done.
	if got := len(journalFrames(t, jp)); got != 5 {
		t.Fatalf("journal frames before reopen = %d, want 5", got)
	}

	st2 := mustOpenStore(t, StoreConfig{Journal: jp})
	defer st2.Close()
	got := st2.Pending()
	want := []struct {
		client string
		spec   campaign.RunSpec
	}{{"alice", specs[0]}, {"alice", specs[2]}, {"bob", specs[3]}}
	if len(got) != len(want) {
		t.Fatalf("Pending() = %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Client != want[i].client || e.Spec.CellKey() != want[i].spec.CellKey() {
			t.Errorf("Pending()[%d] = %s %+v, want %s %+v",
				i, e.Client, e.Spec, want[i].client, want[i].spec)
		}
	}
	// Recovery compacted the journal down to just the pending admits.
	frames := journalFrames(t, jp)
	if len(frames) != 3 {
		t.Fatalf("compacted journal frames = %d, want 3", len(frames))
	}
	for _, o := range frames {
		if o.Type != obsTypeAdmit {
			t.Errorf("compacted journal holds a %q frame, want only admits", o.Type)
		}
	}
}

func TestStoreJournalTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "wal")
	specs := []campaign.RunSpec{durSpec(0), durSpec(1), durSpec(2)}

	st := mustOpenStore(t, StoreConfig{Journal: jp})
	if err := st.JournalAdmit("c", specs); err != nil {
		t.Fatalf("JournalAdmit: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A kill -9 mid-append leaves a torn final frame; emulate by chopping
	// bytes off the tail. The journal shares the archive's repair, so the
	// torn frame is dropped and every complete frame before it survives.
	info, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpenStore(t, StoreConfig{Journal: jp})
	p := st2.Pending()
	if len(p) != 2 {
		t.Fatalf("Pending() after torn tail = %d entries, want 2", len(p))
	}
	for i, e := range p {
		if e.Spec.CellKey() != specs[i].CellKey() {
			t.Errorf("Pending()[%d] = %+v, want %+v", i, e.Spec, specs[i])
		}
	}
	st2.Close()

	// Trailing garbage (a crashed writer's scribble) is repaired the same way.
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st3 := mustOpenStore(t, StoreConfig{Journal: jp})
	defer st3.Close()
	if got := len(st3.Pending()); got != 2 {
		t.Fatalf("Pending() after trailing garbage = %d entries, want 2", got)
	}
}

func TestStoreErrorRecordStaysPending(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "wal")
	ap := filepath.Join(dir, "arch.jsonl")
	spec := durSpec(0)

	st := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	if err := st.JournalAdmit("c", []campaign.RunSpec{spec}); err != nil {
		t.Fatal(err)
	}
	rec := richRec(spec)
	rec.Error = "stub: vantage dead"
	if err := st.Complete(rec); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	st.Close()

	// An errored run gets no done marker: its admit survives the restart for
	// a fresh chance, and its error group — now the unacknowledged archive
	// tail — is truncated away rather than replayed as a result.
	st2 := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	defer st2.Close()
	p := st2.Pending()
	if len(p) != 1 || p[0].Spec.CellKey() != spec.CellKey() {
		t.Fatalf("Pending() = %+v, want the errored run's admit", p)
	}
	n, err := st2.LoadArchive(func(campaign.RunRecord) {})
	if err != nil {
		t.Fatalf("LoadArchive: %v", err)
	}
	if n != 0 {
		t.Fatalf("archive holds %d records after restart, want 0 (error tail truncated)", n)
	}
}

func TestStoreUndoneTailTruncatedAndReplayed(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "wal")
	ap := filepath.Join(dir, "arch.jsonl")
	specs := []campaign.RunSpec{durSpec(0), durSpec(1)}

	fw := &chaos.FaultyWriter{}
	st := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap,
		WrapJournal: func(w io.Writer) io.Writer { fw.W = w; return fw }})
	if err := st.JournalAdmit("c", specs); err != nil {
		t.Fatal(err)
	}
	if err := st.Complete(richRec(specs[0])); err != nil {
		t.Fatalf("Complete healthy: %v", err)
	}
	// The journal dies between specs[1]'s archive write and its done marker —
	// exactly the window the done-marker ordering exists for. Keep it dead
	// through Close so the stash never drains (the crash).
	fw.SetFailing(true)
	if err := st.Complete(richRec(specs[1])); err == nil {
		t.Fatal("Complete with dead journal reported success")
	}
	if st.Err() == nil {
		t.Fatal("Err() nil while journal is failing")
	}
	if err := st.Close(); err == nil {
		t.Fatal("Close with dead journal and stashed marker reported success")
	}

	// Restart: specs[1] has an admit but no done, so its (possibly partial)
	// tail group is dropped whole and the run replays.
	st2 := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	p := st2.Pending()
	if len(p) != 1 || p[0].Spec.CellKey() != specs[1].CellKey() {
		t.Fatalf("Pending() = %+v, want specs[1] only", p)
	}
	var keys []campaign.CellKey
	if _, err := st2.LoadArchive(func(rec campaign.RunRecord) {
		keys = append(keys, rec.CellKey())
	}); err != nil {
		t.Fatalf("LoadArchive: %v", err)
	}
	if len(keys) != 1 || keys[0] != specs[0].CellKey() {
		t.Fatalf("archive after truncation holds %v, want only specs[0]", keys)
	}
	// Re-executing the pending run archives it exactly once.
	if err := st2.Complete(richRec(specs[1])); err != nil {
		t.Fatalf("replayed Complete: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st3 := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	defer st3.Close()
	if got := len(st3.Pending()); got != 0 {
		t.Fatalf("Pending() after replayed completion = %d, want 0", got)
	}
	counts := map[campaign.CellKey]int{}
	if _, err := st3.LoadArchive(func(rec campaign.RunRecord) {
		counts[rec.CellKey()]++
	}); err != nil {
		t.Fatal(err)
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("cell %+v archived %d times, want 1", key, n)
		}
	}
	if len(counts) != 2 {
		t.Errorf("archive holds %d cells, want 2", len(counts))
	}
}

func TestStoreArchiveFaultDegradesThenHeals(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	jp := filepath.Join(dir, "wal")
	ap := filepath.Join(dir, "arch.jsonl")
	specs := []campaign.RunSpec{durSpec(0), durSpec(1), durSpec(2)}

	fw := &chaos.FaultyWriter{}
	st := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap, Metrics: reg,
		WrapArchive: func(w io.Writer) io.Writer { fw.W = w; return fw }})
	defer st.Close()
	if err := st.JournalAdmit("c", specs); err != nil {
		t.Fatal(err)
	}
	if err := st.Complete(richRec(specs[0])); err != nil {
		t.Fatalf("healthy Complete: %v", err)
	}

	fw.SetFailing(true)
	if err := st.Complete(richRec(specs[1])); err == nil {
		t.Fatal("Complete with dead archive reported success")
	}
	if st.Err() == nil {
		t.Fatal("Err() nil while archive is failing")
	}
	// Degraded admission rejects without writing — never journal-then-reject.
	if err := st.JournalAdmit("c", []campaign.RunSpec{durSpec(3)}); err == nil {
		t.Fatal("JournalAdmit while degraded reported success")
	}
	if got := reg.Counter(telemetry.Labels("measured_storage_faults_total", "sink", "archive")).Value(); got != 1 {
		t.Errorf("archive fault counter = %d, want 1", got)
	}
	if got := reg.Gauge("measured_storage_degraded").Value(); got != 1 {
		t.Errorf("degraded gauge = %d, want 1", got)
	}

	// Recovery: the next admission probes the sink, drains the stashed batch
	// (and its done marker), and heals.
	fw.SetFailing(false)
	if err := st.JournalAdmit("c", []campaign.RunSpec{durSpec(3)}); err != nil {
		t.Fatalf("JournalAdmit after recovery: %v", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err() after recovery = %v, want nil", err)
	}
	if got := reg.Gauge("measured_storage_degraded").Value(); got != 0 {
		t.Errorf("degraded gauge after recovery = %d, want 0", got)
	}
	if got := reg.Counter("measured_storage_retries_total").Value(); got == 0 {
		t.Error("retry counter = 0, want the stashed batch's flush counted")
	}
	if err := st.Complete(richRec(specs[2])); err != nil {
		t.Fatalf("Complete after recovery: %v", err)
	}

	// The stashed completion was not lost: specs[1] is archived and done.
	got := map[campaign.CellKey]int{}
	if _, err := st.LoadArchive(func(rec campaign.RunRecord) {
		got[rec.CellKey()]++
	}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if got[spec.CellKey()] != 1 {
			t.Errorf("cell %+v archived %d times, want 1", spec.CellKey(), got[spec.CellKey()])
		}
	}
	p := st.Pending()
	if len(p) != 1 || p[0].Spec.CellKey() != durSpec(3).CellKey() {
		t.Fatalf("Pending() = %+v, want only the un-completed durSpec(3)", p)
	}
}

func TestServiceStorageDegradeRecoverOverHTTP(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	fw := &chaos.FaultyWriter{}
	st := mustOpenStore(t, StoreConfig{Journal: filepath.Join(dir, "wal"),
		Archive: filepath.Join(dir, "arch.jsonl"), Metrics: reg,
		WrapJournal: func(w io.Writer) io.Writer { fw.W = w; return fw }})
	svc := New(Config{Workers: 1, Metrics: reg, Execute: stubExec, Store: st})
	defer func() {
		svc.Shutdown(context.Background())
		st.Close()
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const cellA = "/measure?technique=overt-dns&scenario=dns-poison&trials=1&seed=5&client=a"
	if code, body := httpGet(t, srv, cellA); code != http.StatusOK {
		t.Fatalf("healthy request = %d (%s)", code, strings.TrimSpace(body))
	}

	fw.SetFailing(true)
	code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&trials=1&seed=6&client=a")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during storage fault = %d (%s), want 503", code, strings.TrimSpace(body))
	}
	if !strings.Contains(body, `"reason":"storage"`) {
		t.Errorf("storage rejection body = %s, want reason storage", strings.TrimSpace(body))
	}
	if err := svc.Ready(); err == nil {
		t.Fatal("Ready() nil while storage is degraded — /readyz would stay 200")
	}
	if got := reg.Counter(telemetry.Labels("measured_rejected_total", "reason", "storage")).Value(); got != 1 {
		t.Errorf("rejected{reason=storage} = %d, want 1", got)
	}
	// Cached cells still serve while degraded: nothing new needs journaling.
	if code, _ := httpGet(t, srv, cellA); code != http.StatusOK {
		t.Errorf("cached request during storage fault = %d, want 200", code)
	}

	fw.SetFailing(false)
	if code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&trials=1&seed=6&client=a"); code != http.StatusOK {
		t.Fatalf("request after storage recovery = %d (%s), want 200", code, strings.TrimSpace(body))
	}
	if err := svc.Ready(); err != nil {
		t.Fatalf("Ready() after recovery = %v, want nil", err)
	}
}

func TestAppendFileTruncatesTornTailBeforeRetry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "af")
	fw := &chaos.FaultyWriter{Short: true}
	af, err := openAppendFile(path, func(w io.Writer) io.Writer { fw.W = w; return fw }, false)
	if err != nil {
		t.Fatal(err)
	}
	defer af.close()

	if committed, err := af.append([]byte("alpha-")); !committed || err != nil {
		t.Fatalf("append #1 = (%v, %v)", committed, err)
	}
	fw.SetFailing(true)
	if committed, _ := af.append([]byte("TORNTORN")); committed {
		t.Fatal("short write reported committed")
	}
	// The torn bytes are on disk now; the next successful append must not
	// leave them in the stream.
	fw.SetFailing(false)
	if committed, err := af.append([]byte("omega")); !committed || err != nil {
		t.Fatalf("append #3 = (%v, %v)", committed, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "alpha-omega"; string(got) != want {
		t.Fatalf("file = %q, want %q", got, want)
	}
	if !bytes.Equal(got[:6], []byte("alpha-")) {
		t.Fatalf("clean prefix damaged: %q", got)
	}
}
