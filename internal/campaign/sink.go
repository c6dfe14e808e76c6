package campaign

import (
	"os"
	"sync"
	"sync/atomic"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

// ObservationSink adapts an archival writer to the campaign callbacks: each
// completed run is flattened into observation rows and written as one
// contiguous batch — its trace rows (when tracing is on) followed by its
// record rows — so every run is exactly one group in the file, the property
// CutRunTail relies on. Record and Trace are safe to call from multiple
// workers (the underlying archival.Sink serializes batches).
type ObservationSink struct {
	w archival.Writer

	// traced is set by the first Trace call, so an untraced campaign's
	// Record never touches mu.
	traced atomic.Bool
	mu     sync.Mutex
	traces map[uint64][]archival.Observation // run ID -> held trace rows
}

// NewObservationSink wraps an archival writer.
func NewObservationSink(w archival.Writer) *ObservationSink {
	return &ObservationSink{w: w}
}

// Record archives one run (an Options.OnRecord hook): the trace rows Trace
// holds for it, then its record rows, in one WriteObservations batch.
func (s *ObservationSink) Record(rec RunRecord) {
	rows := FlattenRecord(rec)
	if s.traced.Load() {
		run := archiveRunID(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
		s.mu.Lock()
		held := s.traces[run]
		delete(s.traces, run)
		s.mu.Unlock()
		if len(held) > 0 {
			rows = append(held, rows...)
		}
	}
	s.w.WriteObservations(rows)
}

// Trace flattens one run's trace and holds the rows until that run's Record
// arrives (an Options.OnTrace hook; the pool publishes a run's trace before
// its record). Wire Record as OnRecord whenever Trace is OnTrace, or the
// held rows are never written.
func (s *ObservationSink) Trace(rt RunTrace) {
	rows := FlattenTrace(rt)
	if len(rows) == 0 {
		return
	}
	s.mu.Lock()
	if s.traces == nil {
		s.traces = make(map[uint64][]archival.Observation)
	}
	s.traces[rows[0].Run] = rows
	s.mu.Unlock()
	s.traced.Store(true)
}

// Count reports how many observation rows were written.
func (s *ObservationSink) Count() int { return s.w.Count() }

// Flush drains the underlying writer.
func (s *ObservationSink) Flush() error { return s.w.Flush() }

// SyncEvery makes the writer flush (and, on files, fsync) once at least n
// rows accumulated, bounding what a hard crash can lose. n <= 0 buffers
// until Flush.
func (s *ObservationSink) SyncEvery(n int) { s.w.SetSyncEvery(n) }

// Instrument publishes the writer's flush/sync activity to reg as
// campaign_sink_flush_total{sink=name} and campaign_sink_sync_total{sink=name}.
func (s *ObservationSink) Instrument(reg *telemetry.Registry, name string) {
	s.w.InstrumentSink(reg, "campaign_sink_flush_total", "campaign_sink_sync_total", name)
}

// OpenArchive opens path as a campaign's observation archive, its one
// durable output, in the encoding the extension picks
// (archival.FormatForPath). Without resume the file is created afresh and
// done is nil. With resume it is prepared to finish an interrupted campaign
// in four steps: archival.Repair cuts a torn trailing row; CutRunTail drops
// the final run group, which the interrupt may have cut short; the
// error-free records that remain form done; and the sink appends after
// them. No partial run can survive, and the cut run re-executes (seeds make
// it byte-identical). A file that is not an observation archive, such as
// the record JSONL of earlier versions, is refused before anything is cut.
// The caller closes f after flushing the sink.
func OpenArchive(path string, resume bool) (sink *ObservationSink, f *os.File, done map[DoneKey]bool, err error) {
	format := archival.FormatForPath(path)
	if !resume {
		if f, err = os.Create(path); err != nil {
			return nil, nil, nil, err
		}
		return NewObservationSink(archival.NewWriter(f, format)), f, nil, nil
	}
	if _, err := archival.Repair(path); err != nil {
		return nil, nil, nil, err
	}
	if _, err := CutRunTail(path, func([]archival.Observation) bool { return true }); err != nil {
		return nil, nil, nil, err
	}
	if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		return nil, nil, nil, err
	}
	done = make(map[DoneKey]bool)
	err = ReadRecords(f, archival.TailStrict, nil, func(rec RunRecord) error {
		if rec.Error == "" {
			done[rec.Key()] = true
		}
		return nil
	})
	var st os.FileInfo
	if err == nil {
		st, err = f.Stat()
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	var w archival.Writer
	switch {
	case format != archival.FormatBinary:
		w = archival.NewJSONLWriter(f)
	case st.Size() == 0:
		w = archival.NewBinaryWriter(f) // a fresh file still needs the magic
	default:
		w = archival.NewBinaryAppender(f)
	}
	return NewObservationSink(w), f, done, nil
}
