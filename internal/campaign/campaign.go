// Package campaign turns the repo's one-lab-at-a-time measurement core into
// a throughput layer: it plans a run matrix (techniques × censorship
// scenarios × trial seeds), shards it across a bounded worker pool — one
// isolated lab per run, every seed derived deterministically from the
// campaign seed so results are reproducible regardless of scheduling — and
// streams each completed run to an observation archive before aggregating the
// campaign into per-technique/per-scenario accuracy, MVR-evasion,
// analyst-flag, and attribution-entropy tables (the paper's E11 matrix at
// campaign scale).
//
// The pieces compose left to right:
//
//	NewPlan → Run(plan, Options{Workers, OnRecord: sink.Record}) → Aggregate
//
// Pool is the one worker pool that executes runs: per-run timeout, drain
// grace, the abandoned-run claim gate, breakers, hedging and the per-run
// metrics all live in its worker loop. Run and RunContext drive a Pool
// through one plan and keep only the per-plan concerns (plan-ordered
// records, the failure budget, the stall watchdog, callback guarding); the
// measured service submits to one long-lived Pool.
//
// Each run builds its own lab.Lab and drains it in virtual time, so runs
// never share state and the only nondeterminism a worker pool introduces is
// completion *order*; sorting the archive rows of two campaigns with equal
// seeds but different worker counts yields byte-identical files.
package campaign

import (
	"safemeasure/internal/core"
)

// RunRecord is one campaign run: the shared measurement record plus the
// plan coordinates that produced it and the scenario's ground truth. An
// archive stores it as flat observation rows (FlattenRecord); its JSON form
// is the record line of the measured service's stream and of the record
// JSONL that earlier campaign versions wrote.
type RunRecord struct {
	Scenario string `json:"scenario"`
	// Impairment names the link-impairment preset the run's lab carried
	// (omitted for the pristine link).
	Impairment string `json:"impairment,omitempty"`
	// Behavior names the adversarial censor-behavior preset the run's
	// censor carried (omitted for the faithful censor).
	Behavior string `json:"behavior,omitempty"`
	Trial    int    `json:"trial"`
	core.Record
	// GroundTruth is whether the scenario really censors the target;
	// Correct is whether the verdict matched it.
	GroundTruth bool `json:"ground_truth_censored"`
	Correct     bool `json:"correct"`
	// Error is set when the run failed (lab construction, panic, timeout);
	// all measurement fields are zero in that case.
	Error string `json:"error,omitempty"`
}
