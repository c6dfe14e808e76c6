// Command safemeasure runs a single censorship measurement technique inside
// the simulated lab and reports both the censorship verdict and the risk
// report (what the surveillance system learned about the measurer).
//
// Usage:
//
//	safemeasure -technique spam -domain twitter.com
//	safemeasure -technique overt-http -domain site01.test -path /falun
//	safemeasure -technique syn-scan -domain banned.test -blackhole
//	safemeasure -technique spoofed-dns -domain youtube.com -sav /24
//	safemeasure -technique overt-dns -domain site02.test -impair lossy20
//	safemeasure -technique overt-dns -impair lossy20 -retries 1  # legacy scoring
//	safemeasure -technique overt-http -censor-behavior intermittent -corroborate 5
//	safemeasure -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"

	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/netsim"
	"safemeasure/internal/spoof"
	"safemeasure/internal/trace"
)

func main() {
	techName := flag.String("technique", "overt-http", "technique to run (see -list)")
	domain := flag.String("domain", "twitter.com", "target domain")
	path := flag.String("path", "/", "URL path for HTTP-level techniques")
	port := flag.Uint("port", 80, "target port for TCP-level techniques")
	sav := flag.String("sav", "/24", "client network SAV policy: strict, /24, /16")
	blackhole := flag.Bool("blackhole", false, "blackhole the sensitive web server")
	blockPort := flag.Uint("block-port", 0, "additionally port-block this TCP port")
	seed := flag.Int64("seed", 1, "deterministic seed")
	pop := flag.Int("population", 20, "cover population size")
	impair := flag.String("impair", "none", "link-impairment preset on the WAN uplink (see -list)")
	behavior := flag.String("censor-behavior", "none", "adversarial censor-behavior preset (see -list)")
	retries := flag.Int("retries", core.DefaultMaxAttempts, "max probe attempts (1 = single-shot legacy scoring)")
	corroborate := flag.Int("corroborate", 0, "cross-trial corroboration: N backoff-spaced runs with k-of-n verdict agreement (0 disables; >= 2 enables)")
	list := flag.Bool("list", false, "list techniques and impairments, then exit")
	jsonOut := flag.Bool("json", false, "emit the result and risk report as JSON")
	pcapPath := flag.String("pcap", "", "write the border-tap capture to this pcap file")
	flag.Parse()

	if *list {
		fmt.Println("techniques:")
		for _, t := range core.All() {
			kind := "overt baseline"
			if core.Stealth(t) {
				kind = "stealth"
			}
			fmt.Printf("  %-14s %s\n", t.Name(), kind)
		}
		fmt.Println("impairments:")
		for _, p := range lab.Impairments() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Summary)
		}
		fmt.Println("censor behaviors:")
		for _, p := range lab.Behaviors() {
			fmt.Printf("  %-17s %s\n", p.Name, p.Summary)
		}
		return
	}

	tech, ok := core.ByName(*techName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown technique %q (try -list)\n", *techName)
		os.Exit(2)
	}
	preset, ok := lab.ImpairmentByName(*impair)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown impairment %q (try -list)\n", *impair)
		os.Exit(2)
	}
	bhvPreset, ok := lab.BehaviorByName(*behavior)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown censor behavior %q (try -list)\n", *behavior)
		os.Exit(2)
	}
	if *retries < 1 {
		fmt.Fprintf(os.Stderr, "-retries must be >= 1 (got %d)\n", *retries)
		os.Exit(2)
	}
	if *corroborate == 1 || *corroborate < 0 {
		fmt.Fprintf(os.Stderr, "-corroborate must be 0 (off) or >= 2 (got %d)\n", *corroborate)
		os.Exit(2)
	}

	var policy spoof.Policy
	switch *sav {
	case "strict":
		policy = spoof.PolicyStrict
	case "/24":
		policy = spoof.PolicySlash24
	case "/16":
		policy = spoof.PolicySlash16
	default:
		fmt.Fprintf(os.Stderr, "bad -sav %q\n", *sav)
		os.Exit(2)
	}

	censorCfg := lab.DefaultCensorConfig()
	if *blackhole {
		censorCfg.Blackholed = append(censorCfg.Blackholed, netip.PrefixFrom(lab.SensitiveAddr, 32))
	}
	if *blockPort != 0 {
		censorCfg.BlockedPorts = append(censorCfg.BlockedPorts, uint16(*blockPort))
	}

	l, err := lab.New(lab.Config{
		PopulationSize: *pop,
		Censor:         censorCfg,
		SpoofPolicy:    policy,
		Impair:         preset.Impair,
		Behavior:       bhvPreset.Behavior,
		Seed:           *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var capture *netsim.Capture
	if *pcapPath != "" {
		capture = netsim.NewCapture("border")
		l.Border.AddTap(capture)
	}

	tgt := core.Target{Domain: *domain, Path: *path, Port: uint16(*port)}
	retry := core.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	retry.Corroborate = *corroborate
	var res *core.Result
	core.RunWithRetry(l, tech, tgt, retry, func(r *core.Result) { res = r })
	l.Run()

	if capture != nil {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := trace.WritePcap(f, capture); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d border packets to %s\n", capture.Count(), *pcapPath)
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "measurement never completed")
		os.Exit(1)
	}

	risk := core.EvaluateRisk(l, lab.ClientAddr)
	if *jsonOut {
		// The record shape campaign archives flatten into rows, so ad-hoc
		// runs and campaign post-processing share tooling. elapsed_ms is
		// virtual (simulated) time — identical across re-runs of a seed.
		rec := core.NewRecord(res, risk, *seed, l.Sim.Now())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if risk.Flagged {
			os.Exit(3)
		}
		return
	}

	fmt.Printf("technique : %s\n", res.Technique)
	fmt.Printf("target    : %s\n", res.Target)
	fmt.Printf("verdict   : %v\n", res.Verdict)
	if res.Mechanism != "" {
		fmt.Printf("mechanism : %s\n", res.Mechanism)
	}
	fmt.Printf("probes    : %d (+%d cover)\n", res.ProbesSent, res.CoverSent)
	if res.Attempts > 1 {
		fmt.Printf("attempts  : %d\n", res.Attempts)
	}
	if res.Confidence > 0 {
		fmt.Printf("confidence: %.2f\n", res.Confidence)
	}
	for _, e := range res.Evidence {
		fmt.Printf("evidence  : %s\n", e)
	}

	fmt.Println()
	fmt.Printf("risk report (surveillance system's view of the measurer):\n")
	fmt.Printf("  traffic retained by MVR : %v\n", risk.TrafficRetained)
	fmt.Printf("  alerts in dossier       : %d\n", risk.AnalystAlerts)
	fmt.Printf("  suspicion score         : %.2f\n", risk.Score)
	fmt.Printf("  implicated users        : %d\n", risk.ImplicatedUsers)
	fmt.Printf("  FLAGGED                 : %v\n", risk.Flagged)
	if risk.Flagged {
		os.Exit(3) // caller scripts can detect risky configurations
	}
}
