// Package archival is the engine's unified flat data format: every
// sub-measurement a campaign produces — a verdict, a retry-attempt count, a
// spoofed cover flow, a packet-path trace event, a risk evaluation, an error
// — is one self-describing Observation row carrying a unique observation ID
// plus its parent run ID and full cell identity (technique, scenario,
// impairment, trial, seed). A campaign file therefore unpacks losslessly
// into tabular observations that any downstream tool can join, filter, and
// aggregate without knowing the record shapes of the layers that wrote them
// (websteps' flat archival format is the model).
//
// Two encodings share the schema:
//
//   - JSONL: one JSON object per line, the interchange form. Human-greppable
//     and append-friendly; a torn trailing line (a writer killed mid-append)
//     is tolerated by the readers.
//   - Binary: a magic header followed by length-prefixed records with a
//     field-presence bitmap and varint integers — several times smaller and
//     faster to decode than JSONL at millions-of-records scale.
//
// An observation file is the one durable output of a campaign (cmd/campaign
// -out) and of the measured service's archive. Both writers embed the shared
// Sink, and Reader plus Repair are the one torn-tail path every consumer
// reads and appends through. Rows regroup into run records in package
// campaign (ReadRecords), which also cuts an interrupted file's final run
// group before a resume appends (CutRunTail). DecodeJSONL remains for
// the legacy record JSONL that earlier campaign versions wrote, which
// measanalyze still reads and converts.
package archival

import (
	"hash/fnv"
	"strconv"
)

// Observation types. Each run record decomposes into rows of these types;
// every row of a run shares the run's identity columns, so any subset of
// rows still joins back to its run.
const (
	// TypeVerdict is the run's measurement outcome: Name is the verdict,
	// Detail the censorship mechanism, Dst the target, Value the virtual
	// elapsed milliseconds, Flag whether the verdict matched ground truth.
	TypeVerdict = "verdict"
	// TypeTruth carries the scenario's ground truth: Flag is whether the
	// scenario really censors the target.
	TypeTruth = "truth"
	// TypeStealth marks the technique family: Flag is true for stealth
	// (cover-traffic) techniques.
	TypeStealth = "stealth"
	// TypeAttempt is the retry ledger: Count is how many probe attempts the
	// retry policy consumed.
	TypeAttempt = "attempt"
	// TypeProbe counts measurement probes sent: Count.
	TypeProbe = "probe"
	// TypeCover counts spoofed cover packets sent: Count.
	TypeCover = "cover"
	// TypeCoverAddr is one spoofed cover source address: Seq orders them,
	// Name is the address.
	TypeCoverAddr = "cover-addr"
	// TypeEvidence is one evidence string from the measurement: Seq orders
	// them, Detail is the text.
	TypeEvidence = "evidence"
	// TypeRisk is the analyst-side risk evaluation: Value is the suspicion
	// score, Count the analyst alerts, Flag whether the measurer was flagged.
	TypeRisk = "risk"
	// TypeAttribution is the attribution outcome: Value is the attribution
	// entropy (bits), Count the implicated users, Flag whether the MVR
	// retained measurer metadata.
	TypeAttribution = "attribution"
	// TypeError marks a failed run: Detail is the error text.
	TypeError = "error"
	// TypeTrace is one packet-path event from the run's trace ring: Seq
	// orders events, T is virtual nanoseconds, Name the event kind, Src/Dst
	// the endpoints, Detail the event payload.
	TypeTrace = "trace"
	// TypePacket is one captured datagram from a pcap-style capture: Seq
	// orders packets, T is virtual nanoseconds, Src/Dst the addresses when
	// parsable, Count the datagram length in bytes.
	TypePacket = "packet"
)

// Observation is one flat archival row. The identity columns (Run,
// Technique, Scenario, Impairment, Trial, Seed) repeat on every row so each
// row is self-describing; the payload columns (Seq..Flag) are a small union
// that every observation type draws from, zero values omitted on the wire.
//
// ID and Run are content-derived (see ObservationID and RunID), not
// writer-assigned: the same run always flattens to the same rows with the
// same IDs no matter which worker, file, or process wrote them — the
// determinism contract the rest of the repo already keeps for records.
type Observation struct {
	// ID uniquely identifies this observation; it is derived from
	// (Run, Type, Seq), so it is stable across files and write orders.
	ID uint64 `json:"id,string"`
	// Run links the observation to its parent run: the FNV-1a hash of the
	// run's cell identity (campaign.CellKey). Rendered as a string in JSON
	// so 64-bit values survive tools that read numbers as float64.
	Run uint64 `json:"run,string"`
	// Type says what kind of sub-measurement this row is (Type* constants).
	Type string `json:"type"`

	// Cell identity, flattened onto every row.
	Technique  string `json:"technique"`
	Scenario   string `json:"scenario"`
	Impairment string `json:"impairment,omitempty"`
	// Behavior names the adversarial censor-behavior preset the run's
	// censor carried (omitted for the faithful censor, mirroring
	// Impairment's omitted-pristine convention).
	Behavior string `json:"behavior,omitempty"`
	Trial    int    `json:"trial"`
	Seed     int64  `json:"seed"`

	// Payload columns; each type uses a subset.
	Seq    int     `json:"seq,omitempty"`
	T      int64   `json:"t,omitempty"`
	Name   string  `json:"name,omitempty"`
	Src    string  `json:"src,omitempty"`
	Dst    string  `json:"dst,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Flag   bool    `json:"flag,omitempty"`
	// Confidence is the corroboration agreement fraction on verdict rows
	// (0 when the run was not corroborated).
	Confidence float64 `json:"confidence,omitempty"`
}

// RunID derives the parent-run identifier from a run's cell identity — the
// same coordinates as campaign.CellKey, hashed with FNV-1a 64 over an
// unambiguous rendering. Equal cells hash equal everywhere; the pristine
// impairment and the faithful censor behavior must be canonicalized to ""
// by the caller (the record form). The behavior field is appended at the
// END of the hash and only when non-empty, so runs against the faithful
// censor keep the run IDs they had before the behavior axis existed.
func RunID(technique, scenario, impairment, behavior string, trial int, seed int64) uint64 {
	h := fnv.New64a()
	writeField := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	writeField(technique)
	writeField(scenario)
	writeField(impairment)
	writeField(strconv.Itoa(trial))
	writeField(strconv.FormatInt(seed, 10))
	if behavior != "" {
		writeField(behavior)
	}
	return h.Sum64()
}

// ObservationID derives a row's unique ID from its parent run, type, and
// sequence number. Within one run every row has a distinct (type, seq)
// pair, so IDs are unique per run and — run IDs being cell hashes — unique
// per campaign file.
func ObservationID(run uint64, typ string, seq int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(run >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(typ))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(seq)))
	return h.Sum64()
}

// SetID fills the content-derived ID of an observation in place, from its
// Run, Type, and Seq columns.
func (o *Observation) SetID() { o.ID = ObservationID(o.Run, o.Type, o.Seq) }
