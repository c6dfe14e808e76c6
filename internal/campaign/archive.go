package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

// archiveRunID derives the archival parent-run ID from a record's cell
// identity — the same coordinates as CellKey, so two runs with equal cell
// keys flatten to rows with equal run IDs.
func archiveRunID(technique, scenario, impairment, behavior string, trial int, seed int64) uint64 {
	return archival.RunID(technique, scenario, impairment, behavior, trial, seed)
}

// obsBase stamps the shared identity columns of one run's rows.
func obsBase(technique, scenario, impairment, behavior string, trial int, seed int64) archival.Observation {
	return archival.Observation{
		Run:        archiveRunID(technique, scenario, impairment, behavior, trial, seed),
		Technique:  technique,
		Scenario:   scenario,
		Impairment: impairment,
		Behavior:   behavior,
		Trial:      trial,
		Seed:       seed,
	}
}

// FlattenRecord decomposes one run record into flat archival observations —
// one self-describing row per sub-measurement, every row carrying the run's
// full cell identity and a content-derived unique ID. Zero-valued
// sub-measurements emit no row (an absent row reconstructs as the zero
// value), so error records flatten to just their identity and error rows.
// The inverse is UnflattenRecord; the round trip is exact.
func FlattenRecord(rec RunRecord) []archival.Observation {
	base := obsBase(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
	obs := make([]archival.Observation, 0, 8+len(rec.CoverAddresses)+len(rec.Evidence))
	add := func(o archival.Observation) {
		o.SetID()
		obs = append(obs, o)
	}
	row := func(typ string) archival.Observation {
		o := base
		o.Type = typ
		return o
	}
	if rec.Verdict != "" || rec.Mechanism != "" || rec.Target != "" ||
		rec.ElapsedMS != 0 || rec.Correct || rec.Confidence != 0 {
		o := row(archival.TypeVerdict)
		o.Name = rec.Verdict
		o.Detail = rec.Mechanism
		o.Dst = rec.Target
		o.Value = rec.ElapsedMS
		o.Flag = rec.Correct
		o.Confidence = rec.Confidence
		add(o)
	}
	if rec.GroundTruth {
		o := row(archival.TypeTruth)
		o.Flag = true
		add(o)
	}
	if rec.Stealth {
		o := row(archival.TypeStealth)
		o.Flag = true
		add(o)
	}
	if rec.Attempts != 0 {
		o := row(archival.TypeAttempt)
		o.Count = int64(rec.Attempts)
		add(o)
	}
	if rec.Probes != 0 {
		o := row(archival.TypeProbe)
		o.Count = int64(rec.Probes)
		add(o)
	}
	if rec.Cover != 0 {
		o := row(archival.TypeCover)
		o.Count = int64(rec.Cover)
		add(o)
	}
	for i, addr := range rec.CoverAddresses {
		o := row(archival.TypeCoverAddr)
		o.Seq = i
		o.Name = addr
		add(o)
	}
	for i, ev := range rec.Evidence {
		o := row(archival.TypeEvidence)
		o.Seq = i
		o.Detail = ev
		add(o)
	}
	if rec.Score != 0 || rec.Alerts != 0 || rec.Flagged {
		o := row(archival.TypeRisk)
		o.Value = rec.Score
		o.Count = int64(rec.Alerts)
		o.Flag = rec.Flagged
		add(o)
	}
	if rec.Entropy != 0 || rec.Implicated != 0 || rec.Retained {
		o := row(archival.TypeAttribution)
		o.Value = rec.Entropy
		o.Count = int64(rec.Implicated)
		o.Flag = rec.Retained
		add(o)
	}
	if rec.Error != "" {
		o := row(archival.TypeError)
		o.Detail = rec.Error
		add(o)
	}
	return obs
}

// ObservationSpec reconstructs the run spec identity an observation row
// carries — every row repeats its run's full cell identity, so any single
// row is enough. The returned spec has no plan Index; its CellKey (and
// therefore its derived run ID) matches the row's Run column. This is the
// shared inverse the measured service's journal replay and archive warm
// start both lean on instead of re-deriving identities ad hoc.
func ObservationSpec(o archival.Observation) RunSpec {
	return RunSpec{
		Technique:  o.Technique,
		Scenario:   o.Scenario,
		Impairment: o.Impairment,
		Behavior:   o.Behavior,
		Trial:      o.Trial,
		Seed:       o.Seed,
	}
}

// RunTrace is one run's packet-path event stream plus the plan coordinates
// (and lab seed) that identify it. Events are in emission order and carry
// virtual-time timestamps, so a run's trace depends only on its seed —
// never on worker count or scheduling.
type RunTrace struct {
	Scenario   string
	Impairment string // "" means the pristine link
	Behavior   string // "" means the faithful censor
	Technique  string
	Trial      int
	Seed       int64
	Events     []telemetry.Event
}

// FlattenTrace decomposes one run's packet-path trace into observation rows
// (one per event, ordered by Seq), sharing the run ID of the record rows so
// traces join records by cell identity.
func FlattenTrace(rt RunTrace) []archival.Observation {
	base := obsBase(rt.Technique, rt.Scenario, rt.Impairment, rt.Behavior, rt.Trial, rt.Seed)
	obs := make([]archival.Observation, 0, len(rt.Events))
	for i, ev := range rt.Events {
		o := base
		o.Type = archival.TypeTrace
		o.Seq = i
		o.T = ev.T
		o.Name = ev.Kind
		o.Src = ev.Src
		o.Dst = ev.Dst
		o.Detail = ev.Detail
		o.SetID()
		obs = append(obs, o)
	}
	return obs
}

// UnflattenRecord folds one run's observation rows (any order, trace rows
// ignored) back into the run record FlattenRecord decomposed. All rows must
// share one run identity; a row from another run is an error.
func UnflattenRecord(obs []archival.Observation) (RunRecord, error) {
	if len(obs) == 0 {
		return RunRecord{}, fmt.Errorf("campaign: unflatten: no observations")
	}
	var rec RunRecord
	first := obs[0]
	rec.Technique = first.Technique
	rec.Scenario = first.Scenario
	rec.Impairment = first.Impairment
	rec.Behavior = first.Behavior
	rec.Trial = first.Trial
	rec.Seed = first.Seed
	coverAddrs := map[int]string{}
	evidence := map[int]string{}
	for _, o := range obs {
		if o.Run != first.Run {
			return RunRecord{}, fmt.Errorf("campaign: unflatten: rows from different runs (%d vs %d)",
				o.Run, first.Run)
		}
		switch o.Type {
		case archival.TypeVerdict:
			rec.Verdict = o.Name
			rec.Mechanism = o.Detail
			rec.Target = o.Dst
			rec.ElapsedMS = o.Value
			rec.Correct = o.Flag
			rec.Confidence = o.Confidence
		case archival.TypeTruth:
			rec.GroundTruth = o.Flag
		case archival.TypeStealth:
			rec.Stealth = o.Flag
		case archival.TypeAttempt:
			rec.Attempts = int(o.Count)
		case archival.TypeProbe:
			rec.Probes = int(o.Count)
		case archival.TypeCover:
			rec.Cover = int(o.Count)
		case archival.TypeCoverAddr:
			coverAddrs[o.Seq] = o.Name
		case archival.TypeEvidence:
			evidence[o.Seq] = o.Detail
		case archival.TypeRisk:
			rec.Score = o.Value
			rec.Alerts = int(o.Count)
			rec.Flagged = o.Flag
		case archival.TypeAttribution:
			rec.Entropy = o.Value
			rec.Implicated = int(o.Count)
			rec.Retained = o.Flag
		case archival.TypeError:
			rec.Error = o.Detail
		case archival.TypeTrace, archival.TypePacket:
			// Trace and packet rows ride alongside record rows in archives;
			// they reconstruct through their own paths, not the record.
		default:
			return RunRecord{}, fmt.Errorf("campaign: unflatten: unknown observation type %q", o.Type)
		}
	}
	rec.CoverAddresses = seqSlice(coverAddrs)
	rec.Evidence = seqSlice(evidence)
	return rec, nil
}

// seqSlice orders Seq-keyed strings back into a slice (nil when empty).
func seqSlice(m map[int]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// ReadRecords streams the run records of an observation archive, in either
// encoding, into fn in file order. Rows regroup into run groups
// (forEachGroup) and each group unflattens into one record. Groups holding
// only trace or packet rows are skipped: archives written before a run's
// trace and record rows shared one batch carry them. tail and warn are
// archival.NewReader's; a non-nil error from fn stops the scan and is
// returned verbatim.
func ReadRecords(r io.Reader, tail archival.TailPolicy, warn func(line int, err error), fn func(RunRecord) error) error {
	rd, err := archival.NewReader(r, tail, warn)
	if err != nil {
		return err
	}
	return forEachGroup(rd, func(group []archival.Observation) error {
		if !slices.ContainsFunc(group, isRecordRow) {
			return nil
		}
		rec, err := UnflattenRecord(group)
		if err != nil {
			return err
		}
		return fn(rec)
	})
}

// isRecordRow reports whether a row carries record state, as opposed to
// trace and packet rows, which reconstruct through their own paths.
func isRecordRow(o archival.Observation) bool {
	return o.Type != archival.TypeTrace && o.Type != archival.TypePacket
}

// rowRank is a row type's place in a run group: an ObservationSink batch
// puts a run's trace rows ahead of its record rows, and FlattenRecord emits
// record rows in this fixed type order. Unknown types rank 0.
var rowRank = map[string]int{
	archival.TypeTrace:       1,
	archival.TypePacket:      2,
	archival.TypeVerdict:     3,
	archival.TypeTruth:       4,
	archival.TypeStealth:     5,
	archival.TypeAttempt:     6,
	archival.TypeProbe:       7,
	archival.TypeCover:       8,
	archival.TypeCoverAddr:   9,
	archival.TypeEvidence:    10,
	archival.TypeRisk:        11,
	archival.TypeAttribution: 12,
	archival.TypeError:       13,
}

// continuesGroup reports whether row o extends the group whose latest row
// is prev: same run, and a strictly later (rank, Seq) position. A run
// written twice in a row — an error record and then its re-run — starts
// over at a lower rank, so it reads back as two groups, not one merged
// record.
func continuesGroup(prev, o *archival.Observation) bool {
	if o.Run != prev.Run {
		return false
	}
	rp, ro := rowRank[prev.Type], rowRank[o.Type]
	return ro > rp || ro == rp && o.Seq > prev.Seq
}

// errNotObservations rejects rows without a run ID or type — what the
// per-line record JSONL of earlier campaign versions decodes to.
var errNotObservations = errors.New("row has no run ID or type: not an observation archive " +
	"(record JSONL from an earlier campaign version? migrate it with measanalyze convert first)")

// forEachGroup streams rd's rows to fn one run group at a time: a maximal
// run of consecutive rows that each continue the group (continuesGroup).
// The slice fn gets stays valid until fn's next call.
func forEachGroup(rd *archival.Reader, fn func([]archival.Observation) error) error {
	var group []archival.Observation
	for {
		o, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if o.Run == 0 || o.Type == "" {
			return errNotObservations
		}
		if n := len(group); n > 0 && !continuesGroup(&group[n-1], &o) {
			if err := fn(group); err != nil {
				return err
			}
			group = group[:0]
		}
		group = append(group, o)
	}
	if len(group) == 0 {
		return nil
	}
	return fn(group)
}

// CutRunTail truncates the final run group off the observation archive at
// path when cut accepts it, reporting whether it did. Each run's rows go
// down as one contiguous batch, but a writer killed mid-batch leaves the
// batch short, and a row prefix unflattens to a plausible record, so
// content cannot tell a whole final group from a partial one; only the
// final group can be partial. The file must end on a row boundary
// (archival.Repair first); a torn row is an error here. The group is
// re-encoded to find where it starts, and a file whose trailing bytes are
// not that re-encoding (rows not written by an ObservationSink) is refused
// untouched. A missing file is left alone.
func CutRunTail(path string, cut func(final []archival.Observation) bool) (bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	rd, err := archival.NewReader(f, archival.TailStrict, nil)
	if err != nil {
		return false, err
	}
	var final []archival.Observation
	if err := forEachGroup(rd, func(group []archival.Observation) error {
		final = group
		return nil
	}); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	if len(final) == 0 || !cut(final) {
		return false, nil
	}
	var enc bytes.Buffer
	var w archival.Writer = archival.NewJSONLWriter(&enc)
	if rd.Format() == archival.FormatBinary {
		w = archival.NewBinaryAppender(&enc)
	}
	w.WriteObservations(final)
	if err := w.Flush(); err != nil {
		return false, err
	}
	info, err := f.Stat()
	if err != nil {
		return false, err
	}
	start := info.Size() - int64(enc.Len())
	tail := make([]byte, enc.Len())
	if start >= 0 {
		_, err = f.ReadAt(tail, start)
	}
	if start < 0 || err != nil || !bytes.Equal(tail, enc.Bytes()) {
		return false, fmt.Errorf("%s: the final run group does not re-encode to the file's trailing bytes "+
			"(not written by this campaign version? migrate it with measanalyze convert first)", path)
	}
	return true, os.Truncate(path, start)
}
