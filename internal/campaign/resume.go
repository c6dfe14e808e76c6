package campaign

// DoneKey is the resume identity of a run: its plan coordinates with the
// impairment and behavior names canonicalized (the pristine link and the
// faithful censor are "", matching the omitempty JSONL forms), so files
// written before either axis existed resume cleanly.
type DoneKey struct {
	Technique  string
	Scenario   string
	Impairment string
	Behavior   string
	Trial      int
}

// CellKey is the deterministic result identity of a run: its resume
// coordinates plus the lab seed the run executed with. Two runs with equal
// CellKeys compute byte-identical records (seed-determinism is the repo's
// core invariant), which is what makes CellKey usable as a result-cache key:
// the measured service dedupes requests on it, and cmd/campaign's resume
// logic is the same identity with the seed implied by the campaign seed.
type CellKey struct {
	DoneKey
	Seed int64
}

// CellKey returns the spec's result identity.
func (s RunSpec) CellKey() CellKey { return CellKey{s.Key(), s.Seed} }

// CellKey returns the record's result identity.
func (r RunRecord) CellKey() CellKey { return CellKey{r.Key(), r.Seed} }

// Key returns the spec's resume identity.
func (s RunSpec) Key() DoneKey {
	return DoneKey{s.Technique, s.Scenario, recordImpairment(s.Impairment), recordBehavior(s.Behavior), s.Trial}
}

// Key returns the record's resume identity.
func (r RunRecord) Key() DoneKey {
	return DoneKey{r.Technique, r.Scenario, recordImpairment(r.Impairment), recordBehavior(r.Behavior), r.Trial}
}

// DoneSet collects the coordinates of error-free records — the runs a
// resumed campaign must not repeat. Error records are deliberately left
// out: a run that timed out, panicked, or was abandoned at the drain grace
// gets a fresh chance on resume.
func DoneSet(recs []RunRecord) map[DoneKey]bool {
	done := make(map[DoneKey]bool, len(recs))
	for _, r := range recs {
		if r.Error == "" {
			done[r.Key()] = true
		}
	}
	return done
}

// Remaining filters the plan down to the specs not in done — the plan of a
// resumed campaign. Seeds are untouched (they derive from coordinates, not
// plan position), so resumed runs reproduce exactly what an uninterrupted
// campaign would have produced.
func (p *Plan) Remaining(done map[DoneKey]bool) *Plan {
	return p.Filter(func(s RunSpec) bool { return !done[s.Key()] })
}
