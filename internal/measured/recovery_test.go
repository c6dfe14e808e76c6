package measured

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
)

// The recovery matrix emulates kill -9 by snapshotting the store's files at
// the k-th completion while holding the store mutex — a consistent cut at a
// write boundary, exactly the state a SIGKILL between two write() calls
// leaves behind. Mid-write() tears (the other half of the crash space) are
// layered on by chopping bytes off the snapshot's journal tail; the archive
// can only tear inside a batch whose done marker was never written, which
// the chopped journal and the store-level torn-tail tests cover.

const recoveryCells = 16

func recoverySpecs() []campaign.RunSpec {
	specs := make([]campaign.RunSpec, recoveryCells)
	for i := range specs {
		specs[i] = durSpec(i)
	}
	return specs
}

// execTracker records which cells an executor actually ran (and how often).
type execTracker struct {
	mu   sync.Mutex
	keys map[campaign.CellKey]int
}

func newExecTracker() *execTracker {
	return &execTracker{keys: make(map[campaign.CellKey]int)}
}

func (tr *execTracker) exec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	claim()
	tr.mu.Lock()
	tr.keys[spec.CellKey()]++
	tr.mu.Unlock()
	return richRec(spec)
}

// driveAll admits every spec as one request and waits out every result,
// returning the streamed NDJSON lines sorted (completion order varies with
// workers; content must not).
func driveAll(t *testing.T, svc *Service, client string, specs []campaign.RunSpec) []string {
	t.Helper()
	pendings, err := svc.Admit(client, specs)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer svc.Release(client)
	lines := make([]string, 0, len(pendings))
	for _, p := range pendings {
		line, _, err := p.wait(context.Background())
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		lines = append(lines, string(line))
	}
	sort.Strings(lines)
	return lines
}

// archivedLines decodes the archive (either format) into canonical record
// lines, sorted — the byte-level content identity the recovery contract
// promises, independent of completion order.
func archivedLines(t *testing.T, path string) []string {
	t.Helper()
	recs := archivedRecords(t, path)
	lines := make([]string, 0, len(recs))
	for _, rec := range recs {
		line, err := archival.MarshalLine(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		lines = append(lines, string(line))
	}
	sort.Strings(lines)
	return lines
}

func archivedRecords(t *testing.T, path string) []campaign.RunRecord {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []campaign.RunRecord
	if err := campaign.ReadRecords(f, archival.TailTolerate, nil, func(rec campaign.RunRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("archive read: %v", err)
	}
	return recs
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// chopTail shears n bytes off the file — a torn final frame, as a write()
// cut mid-flight leaves.
func chopTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size()-n <= int64(len(archival.Magic)) {
		return // never chop into the header; Repair's own tests cover that
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// runBaseline executes every spec in one uninterrupted session and returns
// the canonical archive lines and the streamed lines — the ground truth every
// crashed-and-recovered session must reproduce byte for byte.
func runBaseline(t *testing.T, workers int, specs []campaign.RunSpec, archiveName string) (archive, streamed []string) {
	t.Helper()
	dir := t.TempDir()
	ap := filepath.Join(dir, archiveName)
	st := mustOpenStore(t, StoreConfig{Journal: filepath.Join(dir, "wal"), Archive: ap})
	svc := New(Config{Workers: workers, Execute: richExec, Store: st})
	streamed = driveAll(t, svc, "origin", specs)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("baseline shutdown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	return archivedLines(t, ap), streamed
}

// crashRecoverOnce runs one crashed session snapshotted at completion k,
// recovers from the wreckage, re-drives the full request, and checks the
// two invariants: the recovered archive is byte-identical to the baseline,
// and no cell whose result survived the crash executed a second time.
func crashRecoverOnce(t *testing.T, workers, k int, specs []campaign.RunSpec,
	archiveName string, chop int64, baseArchive, baseStreamed []string) {
	t.Helper()

	// Session 1: execute until the k-th completion, snapshot, carry on.
	dir := t.TempDir()
	jp, ap := filepath.Join(dir, "wal"), filepath.Join(dir, archiveName)
	crash := t.TempDir()
	cj, ca := filepath.Join(crash, "wal"), filepath.Join(crash, archiveName)
	st := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	var completions int64
	snapped := make(chan struct{})
	svc := New(Config{Workers: workers, Execute: richExec, Store: st,
		OnRecord: func(campaign.RunRecord) {
			if atomic.AddInt64(&completions, 1) == int64(k) {
				// Holding the store mutex quiesces both sinks: the snapshot is
				// a consistent cut, as an instantaneous SIGKILL would leave.
				st.mu.Lock()
				copyFile(t, jp, cj)
				copyFile(t, ap, ca)
				st.mu.Unlock()
				close(snapped)
			}
		}})
	driveAll(t, svc, "origin", specs)
	<-snapped
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("session 1 shutdown: %v", err)
	}
	st.Close()
	if chop > 0 {
		chopTail(t, cj, chop)
	}

	// Session 2: open the wreckage, warm-start, replay, and re-drive the
	// same request (the measload re-run after a restart).
	st2 := mustOpenStore(t, StoreConfig{Journal: cj, Archive: ca})
	durable := make(map[campaign.CellKey]bool)
	for _, rec := range archivedRecords(t, ca) {
		if rec.Error == "" {
			durable[rec.CellKey()] = true
		}
	}
	tr := newExecTracker()
	svc2 := New(Config{Workers: workers, Execute: tr.exec, Store: st2})
	warmed, err := svc2.WarmStart()
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if warmed != len(durable) {
		t.Errorf("WarmStart warmed %d records, want %d (the durable prefix)", warmed, len(durable))
	}
	svc2.Replay()
	streamed2 := driveAll(t, svc2, "redrive", specs)
	if err := svc2.Shutdown(context.Background()); err != nil {
		t.Fatalf("session 2 shutdown: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("session 2 close: %v", err)
	}

	// Invariant 1: byte-identical recovered output.
	got := archivedLines(t, ca)
	if len(got) != len(baseArchive) {
		t.Fatalf("recovered archive holds %d records, baseline %d", len(got), len(baseArchive))
	}
	for i := range got {
		if got[i] != baseArchive[i] {
			t.Fatalf("recovered archive line %d diverges from baseline:\n got %s\nwant %s",
				i, got[i], baseArchive[i])
		}
	}
	for i := range streamed2 {
		if streamed2[i] != baseStreamed[i] {
			t.Fatalf("recovered stream line %d diverges from baseline:\n got %s\nwant %s",
				i, streamed2[i], baseStreamed[i])
		}
	}

	// Invariant 2: zero duplicate run execution — nothing whose result
	// already sat durable in the wreckage ran again, and nothing ran twice.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for key, n := range tr.keys {
		if durable[key] {
			t.Errorf("cell %+v re-executed after its result was already durable", key)
		}
		if n > 1 {
			t.Errorf("cell %+v executed %d times in the recovery session", key, n)
		}
	}
	// And the executions plus the durable prefix must cover the request.
	if len(tr.keys)+len(durable) < len(specs) {
		t.Errorf("recovery executed %d cells with %d durable — request needs %d",
			len(tr.keys), len(durable), len(specs))
	}
}

// TestKillRecoveryMatrix is the ISSUE's crash harness: ≥8 seeded crash
// points across worker counts {1, 8}, each asserting byte-identical recovery
// with zero duplicate execution. Odd points additionally tear the journal
// tail mid-frame.
func TestKillRecoveryMatrix(t *testing.T) {
	specs := recoverySpecs()
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseArchive, baseStreamed := runBaseline(t, workers, specs, "archive.jsonl")
			if len(baseArchive) != recoveryCells {
				t.Fatalf("baseline archived %d records, want %d", len(baseArchive), recoveryCells)
			}
			rng := rand.New(rand.NewSource(42 + int64(workers)))
			points := map[int]bool{}
			for len(points) < 5 {
				points[1+rng.Intn(recoveryCells-1)] = true
			}
			ks := make([]int, 0, len(points))
			for k := range points {
				ks = append(ks, k)
			}
			sort.Ints(ks)
			for _, k := range ks {
				k := k
				t.Run(fmt.Sprintf("crash=%d", k), func(t *testing.T) {
					var chop int64
					if k%2 == 1 {
						chop = 1 + int64(k*7%24)
					}
					crashRecoverOnce(t, workers, k, specs, "archive.jsonl", chop,
						baseArchive, baseStreamed)
				})
			}
		})
	}
}

// TestKillRecoveryBinaryArchive runs the same harness over the binary
// container format — the tail-group truncation there re-encodes frames
// rather than counting lines, so it earns its own pass.
func TestKillRecoveryBinaryArchive(t *testing.T) {
	specs := recoverySpecs()
	baseArchive, baseStreamed := runBaseline(t, 8, specs, "archive.bin")
	for _, k := range []int{3, 9, 14} {
		k := k
		t.Run(fmt.Sprintf("crash=%d", k), func(t *testing.T) {
			var chop int64
			if k%2 == 1 {
				chop = 1 + int64(k*5%16)
			}
			crashRecoverOnce(t, 8, k, specs, "archive.bin", chop, baseArchive, baseStreamed)
		})
	}
}

// TestWarmStartServesByteIdenticalCacheHits is the warm-start contract in
// isolation: a clean restart re-serves every previously answered cell from
// the rebuilt cache — byte-identical lines, zero executions.
func TestWarmStartServesByteIdenticalCacheHits(t *testing.T) {
	specs := recoverySpecs()[:6]
	dir := t.TempDir()
	jp, ap := filepath.Join(dir, "wal"), filepath.Join(dir, "arch.jsonl")

	st := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	svc := New(Config{Workers: 2, Execute: richExec, Store: st})
	lines1 := driveAll(t, svc, "a", specs)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpenStore(t, StoreConfig{Journal: jp, Archive: ap})
	if got := len(st2.Pending()); got != 0 {
		t.Fatalf("clean shutdown left %d pending admits", got)
	}
	tr := newExecTracker()
	svc2 := New(Config{Workers: 2, Execute: tr.exec, Store: st2})
	warmed, err := svc2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if warmed != len(specs) {
		t.Fatalf("warmed %d records, want %d", warmed, len(specs))
	}
	if n := svc2.Replay(); n != 0 {
		t.Fatalf("Replay() = %d after a clean shutdown, want 0", n)
	}
	lines2 := driveAll(t, svc2, "b", specs)
	if err := svc2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	for i := range lines1 {
		if lines2[i] != lines1[i] {
			t.Fatalf("warm-start line %d diverges:\n got %s\nwant %s", i, lines2[i], lines1[i])
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.keys) != 0 {
		t.Fatalf("warm restart executed %d cells, want 0 (all cache hits)", len(tr.keys))
	}
}

// gateWriter holds every write until gate closes.
type gateWriter struct {
	w    io.Writer
	gate chan struct{}
}

func (gw gateWriter) Write(p []byte) (int, error) {
	<-gw.gate
	return gw.w.Write(p)
}

// TestShutdownWaitsForArchiveWrites: a flight releases its waiters before
// it writes its archive batch, so every client can have its results while
// batches are still on their way to disk. Shutdown must not return until
// they have landed, or closing the store right after loses them.
func TestShutdownWaitsForArchiveWrites(t *testing.T) {
	dir := t.TempDir()
	ap := filepath.Join(dir, "arch.jsonl")
	gate := make(chan struct{})
	st := mustOpenStore(t, StoreConfig{Journal: filepath.Join(dir, "wal"), Archive: ap,
		WrapArchive: func(w io.Writer) io.Writer { return gateWriter{w, gate} }})
	svc := New(Config{Workers: 4, Execute: stubExec, Store: st})
	specs := recoverySpecs()[:3] // fewer than the workers: blocked batches hold no dispatch back
	driveAll(t, svc, "a", specs)

	shut := make(chan error, 1)
	go func() { shut <- svc.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		close(gate)
		t.Fatalf("Shutdown returned (err %v) while archive batches were still unwritten", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(archivedRecords(t, ap)); got != len(specs) {
		t.Fatalf("archive holds %d records after shutdown, want %d", got, len(specs))
	}
}
