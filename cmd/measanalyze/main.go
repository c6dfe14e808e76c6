// Command measanalyze analyzes campaign output at archive scale: it streams
// flat observation files (JSONL or binary), live files a campaign is still
// appending to, and the legacy record JSONL that earlier campaign versions
// wrote, in bounded memory regardless of input size.
//
// Usage:
//
//	measanalyze summarize results.jsonl           # per-axis marginals
//	measanalyze compare baseline.jsonl candidate.jsonl
//	measanalyze filter -type verdict -technique spam archive.bin
//	measanalyze export -o rows.csv archive.bin    # CSV for spreadsheet tools
//	measanalyze convert -o archive.bin results.jsonl
//
// Every subcommand accepts any of the three input shapes and sniffs which
// one it got: the binary magic, observation JSONL (rows with "run" and
// "type" keys), or legacy record JSONL (flattened on the fly; convert
// migrates it to observation rows once and for all). A torn
// trailing record — the normal state of a file a live campaign is appending
// to, or of a writer killed mid-record — is skipped and counted on stderr
// rather than treated as an error; -strict makes it fatal.
//
// compare reads two campaign files, folds each into per-cell (scenario,
// impairment, behavior, technique) verdict-accuracy counts, and calls each
// cell better/worse/inconclusive by the Wilson confidence intervals: a
// verdict is only issued when the intervals are disjoint, so small cells say
// "inconclusive", not "regression". The two files must carry the same set of
// censor-behavior values — comparing a behavior-swept file against a
// faithful-censor one is refused as a column mismatch. Output is
// deterministically sorted; -fail-worse exits 3 when any cell regressed,
// for CI gates.
//
// Exit codes: 0 success, 1 I/O or parse failure, 2 usage, 3 regression
// found (compare -fail-worse only).
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/stats"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: measanalyze <command> [flags] <file>...

commands:
  summarize  per-axis marginals (scenario / technique / impairment / cell)
  compare    per-cell Wilson-CI accuracy deltas between two campaign files
  filter     select observations by axis and write them back out
  export     dump observations as CSV
  convert    transcode between JSONL and binary observation encodings

run "measanalyze <command> -h" for that command's flags
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summarize":
		err = cmdSummarize(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "filter":
		err = cmdFilter(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "measanalyze: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "measanalyze:", err)
		os.Exit(1)
	}
}

// inputKind is what a sniffed file turned out to hold.
type inputKind int

const (
	kindObservations inputKind = iota // flat rows, JSONL or binary
	kindRecords                       // legacy campaign RunRecord JSONL
)

// classify sniffs the input shape from its first bytes: the binary magic,
// or — for JSONL — whether the first line is a flat observation row (always
// carries "run" and "type" keys) or a campaign record (carries neither).
func classify(head []byte) inputKind {
	if bytes.HasPrefix(head, []byte(archival.Magic)) {
		return kindObservations
	}
	line := head
	if i := bytes.IndexByte(head, '\n'); i >= 0 {
		line = head[:i]
	}
	if bytes.Contains(line, []byte(`"run":`)) && bytes.Contains(line, []byte(`"type":`)) {
		return kindObservations
	}
	return kindRecords
}

// input is one opened, sniffed file.
type input struct {
	path string
	f    *os.File
	br   *bufio.Reader
	kind inputKind
}

func openInput(path string) (*input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	head, err := br.Peek(4096)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &input{path: path, f: f, br: br, kind: classify(head)}, nil
}

func (in *input) Close() error { return in.f.Close() }

// tailFlag converts the -strict flag to a tail policy.
func tailFlag(strict bool) archival.TailPolicy {
	if strict {
		return archival.TailStrict
	}
	return archival.TailTolerate
}

// warnTorn reports a tolerated torn record as it is skipped.
func warnTorn(path string) func(line int, err error) {
	return func(line int, err error) {
		if line > 0 {
			fmt.Fprintf(os.Stderr, "measanalyze: %s: skipping torn trailing line %d: %v\n", path, line, err)
			return
		}
		fmt.Fprintf(os.Stderr, "measanalyze: %s: skipping torn trailing binary record\n", path)
	}
}

// forEachObservation streams every observation in the input: flat files
// yield their rows directly, record files are flattened on the fly. Memory
// is bounded by one row (or one record's rows) at a time.
func forEachObservation(in *input, tail archival.TailPolicy, fn func(archival.Observation) error) error {
	if in.kind == kindRecords {
		err := archival.DecodeJSONL(in.br, tail, warnTorn(in.path), func(rec campaign.RunRecord) error {
			for _, o := range campaign.FlattenRecord(rec) {
				if err := fn(o); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
		return nil
	}
	r, err := archival.NewReader(in.br, tail, warnTorn(in.path))
	if err != nil {
		return fmt.Errorf("%s: %w", in.path, err)
	}
	for {
		o, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
		if err := fn(o); err != nil {
			return err
		}
	}
}

// forEachRecord streams every run record in the input: legacy record files
// decode directly; observation files regroup into records through
// campaign.ReadRecords.
func forEachRecord(in *input, tail archival.TailPolicy, fn func(campaign.RunRecord) error) error {
	var err error
	if in.kind == kindRecords {
		err = archival.DecodeJSONL(in.br, tail, warnTorn(in.path), fn)
	} else {
		err = campaign.ReadRecords(in.br, tail, warnTorn(in.path), fn)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", in.path, err)
	}
	return nil
}

// cellKey orders cells the same way campaign summaries do.
type cellKey struct {
	Scenario, Impairment, Behavior, Technique string
}

func (k cellKey) less(o cellKey) bool {
	if k.Scenario != o.Scenario {
		return k.Scenario < o.Scenario
	}
	if k.Impairment != o.Impairment {
		return k.Impairment < o.Impairment
	}
	if k.Behavior != o.Behavior {
		return k.Behavior < o.Behavior
	}
	return k.Technique < o.Technique
}

// impairLabel renders the pristine link's empty name readably.
func impairLabel(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// behaviorLabel renders the faithful censor's empty name readably.
func behaviorLabel(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// axisCounts is the streaming accumulator behind every summarize marginal.
type axisCounts struct {
	Runs, Errors, Correct, Inconclusive, Flagged int
}

func (c *axisCounts) add(rec campaign.RunRecord) {
	if rec.Error != "" {
		c.Errors++
		return
	}
	c.Runs++
	if rec.Correct {
		c.Correct++
	}
	if rec.Verdict == "inconclusive" {
		c.Inconclusive++
	}
	if rec.Flagged {
		c.Flagged++
	}
}

// marginTable renders one axis's marginal as an accuracy table with Wilson
// intervals.
func marginTable(title, col string, m map[string]*axisCounts, label func(string) string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := stats.NewTable(col, "runs", "errors", "accuracy", "acc-95ci", "inconcl", "flag-rate")
	for _, k := range keys {
		c := m[k]
		lo, hi := stats.Wilson95(c.Correct, c.Runs)
		t.AddRow(label(k), c.Runs, c.Errors, frac(c.Correct, c.Runs),
			fmt.Sprintf("%.2f-%.2f", lo, hi), frac(c.Inconclusive, c.Runs), frac(c.Flagged, c.Runs))
	}
	return title + ":\n" + t.String()
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func cmdSummarize(argv []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat a torn trailing record as an error instead of skipping it")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: measanalyze summarize [-strict] <file>")
		os.Exit(2)
	}
	in, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()

	byCell := map[cellKey]*axisCounts{}
	byScenario := map[string]*axisCounts{}
	byTechnique := map[string]*axisCounts{}
	byImpair := map[string]*axisCounts{}
	byBehavior := map[string]*axisCounts{}
	var total axisCounts
	get := func(m map[string]*axisCounts, k string) *axisCounts {
		c := m[k]
		if c == nil {
			c = &axisCounts{}
			m[k] = c
		}
		return c
	}
	err = forEachRecord(in, tailFlag(*strict), func(rec campaign.RunRecord) error {
		key := cellKey{rec.Scenario, rec.Impairment, rec.Behavior, rec.Technique}
		c := byCell[key]
		if c == nil {
			c = &axisCounts{}
			byCell[key] = c
		}
		c.add(rec)
		get(byScenario, rec.Scenario).add(rec)
		get(byTechnique, rec.Technique).add(rec)
		get(byImpair, rec.Impairment).add(rec)
		get(byBehavior, rec.Behavior).add(rec)
		total.add(rec)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("%s — %d completed runs, %d errors, %d cells\n\n",
		in.path, total.Runs, total.Errors, len(byCell))
	ident := func(s string) string { return s }
	fmt.Println(marginTable("per-scenario", "scenario", byScenario, ident))
	fmt.Println(marginTable("per-technique", "technique", byTechnique, ident))
	fmt.Println(marginTable("per-impairment", "impairment", byImpair, impairLabel))
	fmt.Println(marginTable("per-behavior", "behavior", byBehavior, behaviorLabel))

	keys := make([]cellKey, 0, len(byCell))
	for k := range byCell {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	t := stats.NewTable("scenario", "impair", "behav", "technique", "runs", "errors", "accuracy", "acc-95ci", "inconcl", "flag-rate")
	for _, k := range keys {
		c := byCell[k]
		lo, hi := stats.Wilson95(c.Correct, c.Runs)
		t.AddRow(k.Scenario, impairLabel(k.Impairment), behaviorLabel(k.Behavior), k.Technique, c.Runs, c.Errors,
			frac(c.Correct, c.Runs), fmt.Sprintf("%.2f-%.2f", lo, hi),
			frac(c.Inconclusive, c.Runs), frac(c.Flagged, c.Runs))
	}
	fmt.Println("per-cell:\n" + t.String())
	return nil
}

// foldCells streams one campaign file into per-cell accuracy counts plus the
// set of distinct censor-behavior values its records carry.
func foldCells(path string, tail archival.TailPolicy) (map[cellKey]*axisCounts, map[string]bool, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, nil, err
	}
	defer in.Close()
	cells := map[cellKey]*axisCounts{}
	behaviors := map[string]bool{}
	err = forEachRecord(in, tail, func(rec campaign.RunRecord) error {
		key := cellKey{rec.Scenario, rec.Impairment, rec.Behavior, rec.Technique}
		c := cells[key]
		if c == nil {
			c = &axisCounts{}
			cells[key] = c
		}
		c.add(rec)
		behaviors[rec.Behavior] = true
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cells, behaviors, nil
}

// behaviorSetsMatch reports whether two files swept the same censor-behavior
// values. Comparing a behavior-swept candidate against a faithful-censor
// baseline silently pairs cells that never ran in the other file, so compare
// refuses the mismatch instead of issuing misleading verdicts.
func behaviorSetsMatch(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// behaviorSetString renders a behavior set sorted, for error messages.
func behaviorSetString(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, behaviorLabel(k))
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return "(no records)"
	}
	out := keys[0]
	for _, k := range keys[1:] {
		out += "," + k
	}
	return out
}

func cmdCompare(argv []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat a torn trailing record as an error instead of skipping it")
	failWorse := fs.Bool("fail-worse", false, "exit 3 when any cell's accuracy credibly regressed")
	z := fs.Float64("z", stats.Z95, "critical value for the Wilson intervals")
	fs.Parse(argv)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: measanalyze compare [-strict] [-fail-worse] [-z v] <baseline> <candidate>")
		os.Exit(2)
	}
	cellsA, behaviorsA, err := foldCells(fs.Arg(0), tailFlag(*strict))
	if err != nil {
		return err
	}
	cellsB, behaviorsB, err := foldCells(fs.Arg(1), tailFlag(*strict))
	if err != nil {
		return err
	}
	if !behaviorSetsMatch(behaviorsA, behaviorsB) {
		return fmt.Errorf("censor-behavior mismatch: %s carries behaviors {%s} but %s carries {%s}; filter both files to a common behavior set before comparing",
			fs.Arg(0), behaviorSetString(behaviorsA), fs.Arg(1), behaviorSetString(behaviorsB))
	}

	union := map[cellKey]bool{}
	for k := range cellsA {
		union[k] = true
	}
	for k := range cellsB {
		union[k] = true
	}
	keys := make([]cellKey, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })

	var better, worse, inconclusive int
	t := stats.NewTable("scenario", "impair", "behav", "technique",
		"a-runs", "a-acc", "a-95ci", "b-runs", "b-acc", "b-95ci", "delta", "verdict")
	for _, k := range keys {
		var a, b axisCounts
		if c := cellsA[k]; c != nil {
			a = *c
		}
		if c := cellsB[k]; c != nil {
			b = *c
		}
		d := stats.CompareProportions(a.Correct, a.Runs, b.Correct, b.Runs, *z)
		switch d.Verdict {
		case stats.VerdictBetter:
			better++
		case stats.VerdictWorse:
			worse++
		default:
			inconclusive++
		}
		t.AddRow(k.Scenario, impairLabel(k.Impairment), behaviorLabel(k.Behavior), k.Technique,
			d.NA, d.PA, fmt.Sprintf("%.2f-%.2f", d.LoA, d.HiA),
			d.NB, d.PB, fmt.Sprintf("%.2f-%.2f", d.LoB, d.HiB),
			fmt.Sprintf("%+.3f", d.Delta), d.Verdict)
	}
	fmt.Printf("verdict-accuracy: %s (baseline) vs %s (candidate), z=%.3f\n\n",
		fs.Arg(0), fs.Arg(1), *z)
	fmt.Println(t.String())
	fmt.Printf("cells: %d better, %d worse, %d inconclusive\n", better, worse, inconclusive)
	if *failWorse && worse > 0 {
		fmt.Fprintf(os.Stderr, "measanalyze: %d cell(s) credibly regressed\n", worse)
		os.Exit(3)
	}
	return nil
}

// outputWriter opens the observation writer a subcommand writes to: the
// format follows the -o extension (FormatForPath) unless -format forces one.
func outputWriter(out, format string) (archival.Writer, io.Closer, error) {
	var f archival.Format
	switch format {
	case "":
		f = archival.FormatForPath(out)
	case "jsonl":
		f = archival.FormatJSONL
	case "binary", "bin":
		f = archival.FormatBinary
	default:
		return nil, nil, fmt.Errorf("unknown -format %q (want jsonl or binary)", format)
	}
	if out == "" || out == "-" {
		return archival.NewWriter(os.Stdout, f), io.NopCloser(nil), nil
	}
	file, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return archival.NewWriter(file, f), file, nil
}

func cmdFilter(argv []string) error {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat a torn trailing record as an error instead of skipping it")
	typ := fs.String("type", "", "keep only rows of this observation type")
	technique := fs.String("technique", "", "keep only rows of this technique")
	scenario := fs.String("scenario", "", "keep only rows of this scenario")
	impairment := fs.String("impairment", "", "keep only rows of this impairment ('-' for the pristine link)")
	behavior := fs.String("behavior", "", "keep only rows of this censor behavior ('-' for the faithful censor)")
	trial := fs.Int("trial", -1, "keep only rows of this trial (-1 keeps all)")
	run := fs.String("run", "", "keep only rows of this run id")
	limit := fs.Int("limit", 0, "stop after this many rows (0 = unlimited)")
	out := fs.String("o", "", "output path (extension picks the encoding; empty/- is JSONL on stdout)")
	format := fs.String("format", "", "force output encoding: jsonl or binary")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: measanalyze filter [flags] <file>")
		os.Exit(2)
	}
	var runID uint64
	if *run != "" {
		var err error
		runID, err = strconv.ParseUint(*run, 10, 64)
		if err != nil {
			return fmt.Errorf("-run %q: %w", *run, err)
		}
	}
	wantImpair := *impairment
	if wantImpair == "-" {
		wantImpair = ""
	}
	wantBehavior := *behavior
	if wantBehavior == "-" {
		wantBehavior = ""
	}
	keep := func(o archival.Observation) bool {
		switch {
		case *typ != "" && o.Type != *typ,
			*technique != "" && o.Technique != *technique,
			*scenario != "" && o.Scenario != *scenario,
			*impairment != "" && o.Impairment != wantImpair,
			*behavior != "" && o.Behavior != wantBehavior,
			*trial >= 0 && o.Trial != *trial,
			*run != "" && o.Run != runID:
			return false
		}
		return true
	}

	in, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	w, closer, err := outputWriter(*out, *format)
	if err != nil {
		return err
	}
	defer closer.Close()
	kept := 0
	errStop := fmt.Errorf("limit reached")
	err = forEachObservation(in, tailFlag(*strict), func(o archival.Observation) error {
		if !keep(o) {
			return nil
		}
		w.WriteObservations([]archival.Observation{o})
		kept++
		if *limit > 0 && kept >= *limit {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "measanalyze: %d row(s) written\n", kept)
	return nil
}

func cmdExport(argv []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat a torn trailing record as an error instead of skipping it")
	out := fs.String("o", "", "CSV output path (empty/- is stdout)")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: measanalyze export [-strict] [-o rows.csv] <file>")
		os.Exit(2)
	}
	in, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	var dst io.Writer = os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	cw := csv.NewWriter(dst)
	header := []string{"id", "run", "type", "technique", "scenario", "impairment", "behavior",
		"trial", "seed", "seq", "t", "name", "src", "dst", "detail", "value", "count", "flag",
		"confidence"}
	if err := cw.Write(header); err != nil {
		return err
	}
	n := 0
	err = forEachObservation(in, tailFlag(*strict), func(o archival.Observation) error {
		n++
		return cw.Write([]string{
			strconv.FormatUint(o.ID, 10), strconv.FormatUint(o.Run, 10), o.Type,
			o.Technique, o.Scenario, o.Impairment, o.Behavior,
			strconv.Itoa(o.Trial), strconv.FormatInt(o.Seed, 10), strconv.Itoa(o.Seq),
			strconv.FormatInt(o.T, 10), o.Name, o.Src, o.Dst, o.Detail,
			strconv.FormatFloat(o.Value, 'g', -1, 64), strconv.FormatInt(o.Count, 10),
			strconv.FormatBool(o.Flag),
			strconv.FormatFloat(o.Confidence, 'g', -1, 64),
		})
	})
	if err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "measanalyze: %d row(s) exported\n", n)
	return nil
}

func cmdConvert(argv []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat a torn trailing record as an error instead of skipping it")
	out := fs.String("o", "", "output path (extension picks the encoding; empty/- is stdout)")
	format := fs.String("format", "", "force output encoding: jsonl or binary")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: measanalyze convert [-strict] [-format jsonl|binary] -o <out> <file>")
		os.Exit(2)
	}
	in, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	w, closer, err := outputWriter(*out, *format)
	if err != nil {
		return err
	}
	defer closer.Close()
	err = forEachObservation(in, tailFlag(*strict), func(o archival.Observation) error {
		w.WriteObservations([]archival.Observation{o})
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "measanalyze: %d row(s) converted\n", w.Count())
	return nil
}
