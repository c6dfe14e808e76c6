package archival

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randObservation builds a pseudorandom observation; sparse zero fields are
// part of the space (the wire format omits them).
func randObservation(rng *rand.Rand) Observation {
	strOrEmpty := func(s string) string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return s
	}
	o := Observation{
		Run:        rng.Uint64(),
		Type:       strOrEmpty(fmt.Sprintf("type-%d", rng.Intn(8))),
		Technique:  strOrEmpty("spoofed-dns"),
		Scenario:   strOrEmpty("keyword-rst"),
		Impairment: strOrEmpty("lossy20"),
		Behavior:   strOrEmpty("intermittent"),
		Trial:      rng.Intn(1000),
		Seed:       rng.Int63() - rng.Int63(),
		Seq:        rng.Intn(100),
		T:          rng.Int63() - rng.Int63(),
		Name:       strOrEmpty("probe-sent"),
		Src:        strOrEmpty("10.0.0.1"),
		Dst:        strOrEmpty("198.51.100.7"),
		Detail:     strOrEmpty(strings.Repeat("x", rng.Intn(40))),
		Value:      float64(rng.Intn(1000)) / 7,
		Count:      int64(rng.Intn(1 << 20)),
		Flag:       rng.Intn(2) == 0,
		Confidence: float64(rng.Intn(5)) / 5,
	}
	o.SetID()
	return o
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		want := randObservation(rng)
		frame := AppendObservation(nil, &want)
		// Strip the length prefix by reading through the stream reader.
		var buf bytes.Buffer
		buf.WriteString(Magic)
		buf.Write(frame)
		r, err := NewReader(&buf, TailStrict, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Next()
		if err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("obs %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("obs %d: want EOF, got %v", i, err)
		}
	}
}

func TestBinaryRoundTripEdgeValues(t *testing.T) {
	for _, want := range []Observation{
		{},
		{Seed: math.MinInt64, T: math.MaxInt64, Count: math.MinInt64},
		{ID: math.MaxUint64, Run: math.MaxUint64},
		{Value: math.Inf(-1)},
		{Value: math.Copysign(0, -1)}, // negative zero: non-zero bits, zero value
		{Flag: true},
	} {
		frame := AppendObservation(nil, &want)
		length, n := frameLength(frame)
		got, err := DecodeObservation(frame[n : n+length])
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		// -0.0 encodes as absent (== 0), decoding to +0.0: the one
		// documented lossy corner. Everything else is exact.
		if math.Signbit(want.Value) && want.Value == 0 {
			want.Value = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// frameLength decodes the uvarint length prefix of a frame.
func frameLength(frame []byte) (int, int) {
	var l uint64
	var shift uint
	for i, b := range frame {
		l |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(l), i + 1
		}
		shift += 7
	}
	panic("bad frame")
}

func TestJSONLBinaryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	obs := make([]Observation, 100)
	for i := range obs {
		obs[i] = randObservation(rng)
	}
	var jb, bb bytes.Buffer
	jw := NewJSONLWriter(&jb)
	bw := NewBinaryWriter(&bb)
	jw.WriteObservations(obs)
	bw.WriteObservations(obs)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if jw.Count() != len(obs) || bw.Count() != len(obs) {
		t.Fatalf("counts: jsonl %d binary %d, want %d", jw.Count(), bw.Count(), len(obs))
	}
	read := func(buf *bytes.Buffer) []Observation {
		r, err := NewReader(buf, TailStrict, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []Observation
		for {
			o, err := r.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o)
		}
	}
	fromJSON := read(&jb)
	fromBin := read(&bb)
	if !reflect.DeepEqual(fromJSON, obs) {
		t.Fatal("jsonl round trip diverged")
	}
	if !reflect.DeepEqual(fromBin, obs) {
		t.Fatal("binary round trip diverged")
	}
}

func TestReaderSniffsFormats(t *testing.T) {
	o := Observation{Run: 42, Type: TypeVerdict, Technique: "spam", Scenario: "open", Seed: 1}
	o.SetID()

	var jb, bb bytes.Buffer
	writeOneJSONL(t, &jb, o)
	bw := NewBinaryWriter(&bb)
	bw.WriteObservations([]Observation{o})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		buf  *bytes.Buffer
		want Format
	}{{&jb, FormatJSONL}, {&bb, FormatBinary}} {
		r, err := NewReader(bytes.NewReader(tc.buf.Bytes()), TailStrict, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != tc.want {
			t.Fatalf("sniffed %v, want %v", r.Format(), tc.want)
		}
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("got %+v want %+v", got, o)
		}
	}
}

// writeOneJSONL writes one observation as JSONL and flushes.
func writeOneJSONL(t *testing.T, buf *bytes.Buffer, o Observation) {
	t.Helper()
	w := NewJSONLWriter(buf)
	w.WriteObservations([]Observation{o})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderToleratesTornJSONLTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	o1 := Observation{Run: 1, Type: TypeVerdict, Technique: "spam", Scenario: "open", Seed: 1}
	o1.SetID()
	w.WriteObservations([]Observation{o1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"id":"12","run":"3","type":"verd`) // live append in flight

	r, err := NewReader(bytes.NewReader(buf.Bytes()), TailTolerate, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Observation
	for {
		o, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, o)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], o1) {
		t.Fatalf("got %+v", got)
	}
	if r.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", r.Skipped())
	}

	// The same stream errors under TailStrict.
	rs, err := NewReader(bytes.NewReader(buf.Bytes()), TailStrict, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err == nil || err == io.EOF {
		t.Fatal("strict reader accepted a torn tail")
	}
}

func TestReaderRejectsMidStreamCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	o := Observation{Run: 1, Type: TypeVerdict, Scenario: "open", Seed: 1}
	o.SetID()
	w.WriteObservations([]Observation{o})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	stream := good[:len(good)/2] + "\n" + good // torn line followed by data

	r, err := NewReader(strings.NewReader(stream), TailTolerate, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("tolerant reader accepted mid-stream corruption")
		}
		if err != nil {
			break // the expected outcome
		}
	}
}

func TestReaderToleratesTornBinaryTail(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	o1 := Observation{Run: 9, Type: TypeTrace, Technique: "spam", Scenario: "open", Seed: 4, Seq: 3}
	o1.SetID()
	o2 := o1
	o2.Seq = 4
	o2.SetID()
	bw.WriteObservations([]Observation{o1, o2})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Chop bytes off the tail: every truncation point inside the final
	// record must yield exactly o1 plus one tolerated skip.
	lastLen := len(AppendObservation(nil, &o2))
	for cut := 1; cut < lastLen; cut++ {
		r, err := NewReader(bytes.NewReader(full[:len(full)-cut]), TailTolerate, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Next()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, o1) {
			t.Fatalf("cut %d: got %+v", cut, got)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("cut %d: want tolerated EOF, got %v", cut, err)
		}
		if r.Skipped() != 1 {
			t.Fatalf("cut %d: skipped = %d, want 1", cut, r.Skipped())
		}

		// Strict mode refuses the same wreckage.
		rs, err := NewReader(bytes.NewReader(full[:len(full)-cut]), TailStrict, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Next(); err != nil {
			t.Fatalf("cut %d strict first: %v", cut, err)
		}
		if _, err := rs.Next(); err == nil || err == io.EOF {
			t.Fatalf("cut %d: strict reader accepted a torn binary tail", cut)
		}
	}
}

func TestDecodeJSONLResumeSemantics(t *testing.T) {
	type rec struct {
		A int `json:"a"`
	}
	decode := func(in string, tail TailPolicy, warn func(int, error)) ([]rec, error) {
		var out []rec
		err := DecodeJSONL(strings.NewReader(in), tail, warn, func(r rec) error {
			out = append(out, r)
			return nil
		})
		return out, err
	}
	// Clean stream.
	recs, err := decode("{\"a\":1}\n{\"a\":2}\n", TailTolerate, func(line int, err error) {
		t.Fatalf("clean stream warned about line %d: %v", line, err)
	})
	if err != nil || len(recs) != 2 {
		t.Fatalf("clean: recs=%v err=%v", recs, err)
	}
	// Torn tail: skipped, and warn names the bad line.
	warned := 0
	recs, err = decode("{\"a\":1}\n{\"a\":", TailTolerate, func(line int, err error) {
		warned++
		if line != 2 {
			t.Fatalf("warn line = %d, want 2", line)
		}
	})
	if err != nil || len(recs) != 1 || warned != 1 {
		t.Fatalf("torn: recs=%v warned=%d err=%v", recs, warned, err)
	}
	// Mid-stream corruption errors even under TailTolerate.
	if _, err = decode("{\"a\":\nok\n", TailTolerate, nil); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
	// Strict mode rejects the torn tail outright.
	if _, err = decode("{\"a\":1}\n{\"a\":", TailStrict, nil); err == nil {
		t.Fatal("strict accepted a torn tail")
	}
}

func TestRunIDDeterministicAndDistinct(t *testing.T) {
	a := RunID("spam", "open", "", "", 3, 42)
	if a != RunID("spam", "open", "", "", 3, 42) {
		t.Fatal("RunID not deterministic")
	}
	// The separator must keep adjacent fields from gluing together.
	if RunID("spam", "open", "", "", 3, 42) == RunID("spamopen", "", "", "", 3, 42) {
		t.Fatal("RunID field boundary ambiguous")
	}
	if RunID("a", "b", "c", "", 1, 2) == RunID("a", "b", "c", "", 1, 3) {
		t.Fatal("RunID ignores seed")
	}
	// The behavior column contributes only when non-empty, so faithful-censor
	// runs keep the run IDs they had before the behavior axis existed.
	if RunID("a", "b", "c", "intermittent", 1, 2) == RunID("a", "b", "c", "", 1, 2) {
		t.Fatal("RunID ignores behavior")
	}
	if ObservationID(a, TypeVerdict, 0) == ObservationID(a, TypeVerdict, 1) {
		t.Fatal("ObservationID ignores seq")
	}
	if ObservationID(a, TypeVerdict, 0) == ObservationID(a, TypeTruth, 0) {
		t.Fatal("ObservationID ignores type")
	}
}

func TestSinkSyncEveryCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.SetSyncEvery(2)
	o := Observation{Run: 1, Type: TypeVerdict}
	for i := 0; i < 5; i++ {
		w.WriteObservations([]Observation{o})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5 {
		t.Fatalf("count = %d, want 5", w.Count())
	}
	if got := bytes.Count(buf.Bytes(), []byte{'\n'}); got != 5 {
		t.Fatalf("lines = %d, want 5", got)
	}
}

func TestDecodeObservationRejectsGarbage(t *testing.T) {
	for _, payload := range [][]byte{
		{},                 // no bitmap
		{0xff, 0xff, 0xff}, // truncated uvarint bitmap
		{0x80, 0x80, 0x08}, // unknown bit 17 set
		{0x04, 0x05, 'a'},  // type string longer than payload
		{0x01, 0x07, 0x99}, // trailing bytes after id
	} {
		if _, err := DecodeObservation(payload); err == nil {
			t.Fatalf("payload %v accepted", payload)
		}
	}
}
