// Package chaos provides seeded, deterministic fault injectors for proving
// the campaign subsystem's crash-safety guarantees by deliberate abuse:
//
//   - FlakyWriter fails (or short-writes) a sink's underlying stream after
//     an exact byte budget — the torn-line shape of a process killed
//     mid-write or a filesystem gone read-only.
//   - PanicEvery and HangEvery wrap a campaign Executor to blow up or wedge
//     on a schedule, exercising the pool's panic recovery and its
//     timeout/abandon claim gate.
//   - CancelAfter drives the cancel-at-seeded-point scenario: it cancels a
//     campaign context once the nth record has streamed, so a test can pick
//     interrupt points from a seeded RNG and replay them exactly.
//
// The injectors themselves are deterministic (byte budgets and call counts,
// never wall-clock sampling); which spec lands on a given call still
// depends on scheduling, which is the point — the invariant tests in this
// package assert that interrupt + resume converges to byte-identical
// aggregates no matter which victim the scheduler picked.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"safemeasure/internal/campaign"
)

// ErrInjected is the write failure FlakyWriter injects when Err is nil.
var ErrInjected = errors.New("chaos: injected write failure")

// FlakyWriter passes writes through to W until FailAfter bytes have been
// written, then fails the write that crosses the boundary: a short write of
// exactly the remaining budget when Short is set (bufio surfaces it as
// io.ErrShortWrite — the torn trailing line a crash leaves), otherwise Err
// (ErrInjected when nil) with nothing written. The failure is permanent,
// like a disk gone read-only. Safe for concurrent use.
type FlakyWriter struct {
	W         io.Writer
	FailAfter int64
	Err       error
	Short     bool

	mu      sync.Mutex
	written int64
	failed  bool
}

// Write implements io.Writer with the byte-budget fault.
func (f *FlakyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed {
		return 0, f.injectedErr()
	}
	budget := f.FailAfter - f.written
	if int64(len(p)) <= budget {
		n, err := f.W.Write(p)
		f.written += int64(n)
		return n, err
	}
	f.failed = true
	if f.Short && budget > 0 {
		n, err := f.W.Write(p[:budget])
		f.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	return 0, f.injectedErr()
}

// Written reports how many bytes reached the underlying writer.
func (f *FlakyWriter) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// Failed reports whether the fault has fired.
func (f *FlakyWriter) Failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

func (f *FlakyWriter) injectedErr() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FaultyWriter is FlakyWriter's recoverable cousin: writes pass through to
// W until SetFailing(true), then every write fails — a short write of a
// seeded prefix length when Short is set (the torn-frame wreckage a crash
// leaves mid-record), otherwise Err (ErrInjected when nil) with nothing
// written — until SetFailing(false) heals it. Where FlakyWriter models a
// disk gone permanently read-only, FaultyWriter models the transient faults
// a degrade-and-recover storage layer must survive: full disks that empty,
// network filesystems that flap. Safe for concurrent use.
type FaultyWriter struct {
	W     io.Writer
	Err   error
	Short bool

	mu      sync.Mutex
	failing bool
	faults  int64
	written int64
}

// Write implements io.Writer with the togglable fault.
func (f *FaultyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.failing {
		n, err := f.W.Write(p)
		f.written += int64(n)
		return n, err
	}
	f.faults++
	if f.Short && len(p) > 1 {
		// Deterministic partial prefix: the fault count picks how much of
		// the record lands, so repeated faults tear at different offsets.
		n, err := f.W.Write(p[:1+int(f.faults)%(len(p)-1)])
		f.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	return 0, f.injectedErr()
}

// SetFailing flips the fault on or off; writes recover as soon as it is off.
func (f *FaultyWriter) SetFailing(failing bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failing = failing
}

// Faults reports how many writes the fault has rejected (or torn).
func (f *FaultyWriter) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Written reports how many bytes reached the underlying writer.
func (f *FaultyWriter) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

func (f *FaultyWriter) injectedErr() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// passthrough is the executor used when a wrapper is given a nil inner: a
// plain uninstrumented campaign run, claimed just before publication.
func passthrough(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	rec := campaign.Execute(spec, 0)
	claim()
	return rec
}

// PanicEvery wraps an executor (nil means a plain campaign.Execute) so that
// every nth call, counted across the whole campaign, panics instead of
// running. n < 1 never fires. The pool must convert each detonation into an
// error record and keep the campaign — and a later resume — intact.
func PanicEvery(n int, inner campaign.Executor) campaign.Executor {
	if inner == nil {
		inner = passthrough
	}
	var calls atomic.Int64
	return func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		if c := calls.Add(1); n >= 1 && c%int64(n) == 0 {
			panic(fmt.Sprintf("chaos: injected panic on executor call %d (%s/%s trial %d)",
				c, spec.Technique, spec.Scenario, spec.Trial))
		}
		return inner(spec, claim)
	}
}

// HangEvery wraps an executor (nil means a plain campaign.Execute) so that
// every nth call sleeps for hang before running — set hang well past the
// pool timeout and the run simulates a wedged simulator the pool must
// abandon (and whose claim must then lose, publishing nothing).
func HangEvery(n int, hang time.Duration, inner campaign.Executor) campaign.Executor {
	if inner == nil {
		inner = passthrough
	}
	var calls atomic.Int64
	return func(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
		if c := calls.Add(1); n >= 1 && c%int64(n) == 0 {
			time.Sleep(hang)
		}
		return inner(spec, claim)
	}
}

// CancelAfter returns an OnRecord hook that invokes cancel exactly once,
// when the nth record streams (n < 1 fires on the first). Chain it in front
// of the sink and a campaign interrupts itself at a reproducible point in
// its own record stream — the cancel-at-seeded-point driver.
func CancelAfter(n int, cancel func()) func(campaign.RunRecord) {
	var seen atomic.Int64
	return func(campaign.RunRecord) {
		if c := seen.Add(1); c == int64(n) || (n < 1 && c == 1) {
			cancel()
		}
	}
}
