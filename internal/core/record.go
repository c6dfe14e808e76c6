package core

import (
	"time"
)

// Record is the machine-readable form of one completed measurement: the
// Result, the RiskReport, and run metadata, flattened into a stable JSON
// shape. cmd/safemeasure -json emits one Record; the campaign subsystem
// archives one per run as flat observation rows that rebuild into it, so
// ad-hoc runs and campaign post-processing share a record format.
//
// ElapsedMS is *virtual* milliseconds — how much simulated time the run
// consumed — so records are byte-identical across repeated runs of the same
// seed regardless of host speed or scheduling.
type Record struct {
	Technique      string   `json:"technique"`
	Target         string   `json:"target"`
	Seed           int64    `json:"seed"`
	Stealth        bool     `json:"stealth"`
	Verdict        string   `json:"verdict"`
	Mechanism      string   `json:"mechanism,omitempty"`
	Probes         int      `json:"probes"`
	Cover          int      `json:"cover"`
	Attempts       int      `json:"attempts"`
	Confidence     float64  `json:"confidence,omitempty"`
	CoverAddresses []string `json:"cover_addresses,omitempty"`
	Evidence       []string `json:"evidence,omitempty"`
	ElapsedMS      float64  `json:"elapsed_ms"`
	Retained       bool     `json:"traffic_retained"`
	Alerts         int      `json:"analyst_alerts"`
	Score          float64  `json:"suspicion_score"`
	Entropy        float64  `json:"attribution_entropy"`
	Implicated     int      `json:"implicated_users"`
	Flagged        bool     `json:"flagged"`
}

// NewRecord flattens a measurement and its risk report. seed is the lab
// seed the run used; elapsed is the virtual time the simulator consumed.
func NewRecord(res *Result, risk RiskReport, seed int64, elapsed time.Duration) Record {
	rec := Record{
		Technique:  res.Technique,
		Target:     res.Target.String(),
		Seed:       seed,
		Verdict:    res.Verdict.String(),
		Mechanism:  res.Mechanism,
		Probes:     res.ProbesSent,
		Cover:      res.CoverSent,
		Attempts:   max(res.Attempts, 1),
		Confidence: res.Confidence,
		Evidence:   res.Evidence,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		Retained:   risk.TrafficRetained,
		Alerts:     risk.AnalystAlerts,
		Score:      risk.Score,
		Entropy:    risk.AttributionEntropy,
		Implicated: risk.ImplicatedUsers,
		Flagged:    risk.Flagged,
	}
	if t, ok := ByName(res.Technique); ok {
		rec.Stealth = Stealth(t)
	}
	for _, a := range res.CoverAddrs {
		rec.CoverAddresses = append(rec.CoverAddresses, a.String())
	}
	return rec
}
