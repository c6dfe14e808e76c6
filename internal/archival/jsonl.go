package archival

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"safemeasure/internal/telemetry"
)

// scanBuf/scanMax size the line scanner every JSONL reader shares: lines up
// to scanMax bytes are accepted, matching what the sinks can write.
const (
	scanBuf = 64 * 1024
	scanMax = 1 << 20
)

// MarshalLine renders v as one JSONL line, newline included — the line
// encoding of the measured service stream. JSONLWriter's json.Encoder emits
// the same bytes for each observation row.
func MarshalLine(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// syncer is the optional durability hook of a sink's underlying writer —
// *os.File satisfies it; in-memory buffers simply skip the sync step.
type syncer interface{ Sync() error }

// Sink is the shared record-stream writer: a mutex-guarded bufio writer
// with whole-record writes, an every-N-records flush-and-fsync durability
// policy, and optional flush/sync telemetry. Both observation writers embed
// it; they differ only in how a row becomes bytes.
//
// Records are written whole under the lock, so a writer killed mid-stream
// leaves a valid prefix plus at most one torn trailing record — the exact
// wreckage the tolerant readers in this package repair.
type Sink struct {
	mu         sync.Mutex
	w          *bufio.Writer
	raw        io.Writer
	count      int
	err        error
	syncEvery  int
	sinceFlush int
	flushes    *telemetry.Counter
	syncs      *telemetry.Counter
}

// Reset points the sink at w; embedders call it from their constructors.
func (s *Sink) Reset(w io.Writer) {
	s.w, s.raw = bufio.NewWriter(w), w
}

// SetSyncEvery bounds how much a hard crash can lose: every n records the
// sink flushes its bufio layer and, when the underlying writer is a file,
// syncs it to stable storage. n <= 0 restores the default (buffer until
// Flush).
func (s *Sink) SetSyncEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncEvery = n
}

// InstrumentSink publishes flush/sync activity to reg under the given
// metric names, labeled {sink=name}.
func (s *Sink) InstrumentSink(reg *telemetry.Registry, flushMetric, syncMetric, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes = reg.Counter(telemetry.Labels(flushMetric, "sink", name))
	s.syncs = reg.Counter(telemetry.Labels(syncMetric, "sink", name))
}

// WriteBatch appends one pre-encoded batch of n records (framing included)
// with a single write under one lock acquisition. Encoding a whole run's
// rows before taking the lock keeps concurrent workers' serialization work
// parallel; only the copy into the bufio layer is serialized. The batch
// lands contiguously, so a writer killed mid-stream leaves a valid prefix
// plus at most one torn trailing record, and each of the n records counts
// toward the SetSyncEvery policy.
func (s *Sink) WriteBatch(raw []byte, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(raw); err != nil {
		s.err = err
		return
	}
	for i := 0; i < n; i++ {
		s.wroteLocked()
	}
}

// Fail retains an error produced outside the lock (batch encoding); the
// first error wins, exactly like a write error.
func (s *Sink) Fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// batchBufs pools the scratch buffers JSONLWriter encodes a batch into
// before handing the Sink one contiguous WriteBatch.
var batchBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// wroteLocked accounts one written record and applies the SetSyncEvery
// policy.
func (s *Sink) wroteLocked() {
	s.count++
	s.sinceFlush++
	if s.syncEvery > 0 && s.sinceFlush >= s.syncEvery {
		s.flushLocked(true)
	}
}

// flushLocked drains the bufio layer and, when sync is set, pushes the
// bytes to stable storage if the underlying writer can. The first error is
// retained, poisoning later writes exactly like a write error.
func (s *Sink) flushLocked(sync bool) error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return err
	}
	s.flushes.Inc()
	s.sinceFlush = 0
	if sync {
		if f, ok := s.raw.(syncer); ok {
			if err := f.Sync(); err != nil {
				s.err = err
				return err
			}
			s.syncs.Inc()
		}
	}
	return nil
}

// Count returns how many records were written so far.
func (s *Sink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Flush drains buffers (syncing to stable storage when SetSyncEvery is
// active) and returns the first error the sink hit.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(s.syncEvery > 0)
}

// TailPolicy says what a reader does with a record it cannot decode.
type TailPolicy int

const (
	// TailStrict rejects any undecodable record: the file is expected to be
	// complete and intact.
	TailStrict TailPolicy = iota
	// TailTolerate skips an undecodable FINAL record — the normal wreckage
	// of a writer killed mid-append, or of reading a file a live writer is
	// still appending to — reporting it through the warn callback and the
	// truncate offset. Corruption anywhere before the last record still
	// aborts: that indicates real file damage, not an interrupted append.
	TailTolerate
)

// DecodeJSONL streams records of type T from a JSONL stream, calling fn for
// each. Empty lines are skipped. Under TailTolerate a bad final line is
// skipped and warn, when non-nil, is told which line and why. A non-nil
// error from fn stops the scan and is returned verbatim.
func DecodeJSONL[T any](r io.Reader, tail TailPolicy, warn func(line int, err error), fn func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, scanBuf), scanMax)
	line := 0
	badLine := 0
	var badErr error
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if badErr != nil {
			// The bad line has non-empty data after it, so it was not a
			// trailing partial write.
			return fmt.Errorf("archival: jsonl line %d: %w", badLine, badErr)
		}
		var rec T
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			if tail == TailStrict {
				return fmt.Errorf("archival: jsonl line %d: %w", line, err)
			}
			badLine, badErr = line, err
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if badErr != nil && warn != nil {
		warn(badLine, badErr)
	}
	return nil
}
