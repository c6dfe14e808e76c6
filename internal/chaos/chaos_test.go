package chaos

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"safemeasure/internal/campaign"
)

func TestFlakyWriterErrorMode(t *testing.T) {
	var buf bytes.Buffer
	fw := &FlakyWriter{W: &buf, FailAfter: 10}
	if n, err := fw.Write([]byte("0123456789")); n != 10 || err != nil {
		t.Fatalf("in-budget write: n=%d err=%v", n, err)
	}
	if n, err := fw.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("boundary write: n=%d err=%v, want 0, ErrInjected", n, err)
	}
	// The failure is permanent, even for writes that would fit.
	if _, err := fw.Write(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure write: err=%v, want ErrInjected", err)
	}
	if buf.String() != "0123456789" || fw.Written() != 10 || !fw.Failed() {
		t.Fatalf("buf=%q written=%d failed=%v", buf.String(), fw.Written(), fw.Failed())
	}
}

func TestFlakyWriterShortMode(t *testing.T) {
	var buf bytes.Buffer
	fw := &FlakyWriter{W: &buf, FailAfter: 4, Short: true}
	n, err := fw.Write([]byte("abcdefgh"))
	if n != 4 || err != io.ErrShortWrite {
		t.Fatalf("short write: n=%d err=%v, want 4, io.ErrShortWrite", n, err)
	}
	if buf.String() != "abcd" {
		t.Fatalf("buf=%q, want the torn prefix \"abcd\"", buf.String())
	}
	if _, err := fw.Write([]byte("z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-tear write: err=%v, want ErrInjected", err)
	}
}

func TestFlakyWriterCustomError(t *testing.T) {
	sentinel := errors.New("enospc")
	fw := &FlakyWriter{W: io.Discard, FailAfter: 0, Err: sentinel}
	if _, err := fw.Write([]byte("x")); !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want sentinel", err)
	}
}

func TestFaultyWriterTogglesAndRecovers(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultyWriter{W: &buf}
	if n, err := fw.Write([]byte("ok1")); n != 3 || err != nil {
		t.Fatalf("healthy write: n=%d err=%v", n, err)
	}
	fw.SetFailing(true)
	if n, err := fw.Write([]byte("lost")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("failing write: n=%d err=%v, want 0, ErrInjected", n, err)
	}
	if _, err := fw.Write([]byte("lost2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second failing write: err=%v, want ErrInjected", err)
	}
	fw.SetFailing(false)
	if n, err := fw.Write([]byte("ok2")); n != 3 || err != nil {
		t.Fatalf("recovered write: n=%d err=%v", n, err)
	}
	if buf.String() != "ok1ok2" {
		t.Fatalf("buf=%q, want the failed writes fully absent", buf.String())
	}
	if fw.Faults() != 2 || fw.Written() != 6 {
		t.Fatalf("faults=%d written=%d, want 2 and 6", fw.Faults(), fw.Written())
	}
}

func TestFaultyWriterShortTearsPartialPrefix(t *testing.T) {
	var buf bytes.Buffer
	fw := &FaultyWriter{W: &buf, Short: true}
	fw.SetFailing(true)
	n, err := fw.Write([]byte("abcdefgh"))
	if err != io.ErrShortWrite {
		t.Fatalf("short-mode write: err=%v, want io.ErrShortWrite", err)
	}
	if n < 1 || n >= 8 || buf.Len() != n {
		t.Fatalf("short-mode write: n=%d buf=%d bytes, want a proper partial prefix", n, buf.Len())
	}
	fw.SetFailing(false)
	if _, err := fw.Write([]byte("tail")); err != nil {
		t.Fatalf("recovered write after tear: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "tail") {
		t.Fatalf("buf=%q, want recovered suffix after the torn prefix", buf.String())
	}
}

// stubExec returns a deterministic record without touching a lab.
func stubExec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	rec := campaign.RunRecord{Scenario: spec.Scenario, Trial: spec.Trial}
	rec.Technique = spec.Technique
	rec.Seed = spec.Seed
	claim()
	return rec
}

func TestPanicEverySchedule(t *testing.T) {
	exec := PanicEvery(3, stubExec)
	spec := campaign.RunSpec{Technique: "spam", Scenario: "dns-poison", Trial: 0}
	mustPanic := func(call int, want bool) {
		t.Helper()
		defer func() {
			p := recover()
			if (p != nil) != want {
				t.Fatalf("call %d: panic=%v, want panic=%v", call, p, want)
			}
			if want && !strings.Contains(p.(string), "chaos: injected panic") {
				t.Fatalf("call %d: panic message %q", call, p)
			}
		}()
		exec(spec, func() bool { return true })
	}
	for call := 1; call <= 7; call++ {
		mustPanic(call, call%3 == 0)
	}
}

func TestHangEverySleepsOnSchedule(t *testing.T) {
	const hang = 30 * time.Millisecond
	exec := HangEvery(2, hang, stubExec)
	spec := campaign.RunSpec{Technique: "spam", Scenario: "dns-poison"}
	start := time.Now()
	exec(spec, func() bool { return true }) // call 1: no hang
	if el := time.Since(start); el >= hang {
		t.Fatalf("call 1 hung for %v", el)
	}
	start = time.Now()
	exec(spec, func() bool { return true }) // call 2: hangs
	if el := time.Since(start); el < hang {
		t.Fatalf("call 2 returned after %v, want >= %v", el, hang)
	}
}

func TestCancelAfterFiresOnce(t *testing.T) {
	fired := 0
	hook := CancelAfter(3, func() { fired++ })
	for i := 0; i < 10; i++ {
		hook(campaign.RunRecord{})
	}
	if fired != 1 {
		t.Fatalf("cancel fired %d times, want exactly 1 (at the 3rd record)", fired)
	}
	// n < 1 fires on the first record.
	fired = 0
	first := CancelAfter(0, func() { fired++ })
	first(campaign.RunRecord{})
	first(campaign.RunRecord{})
	if fired != 1 {
		t.Fatalf("n=0 cancel fired %d times, want 1", fired)
	}
}
