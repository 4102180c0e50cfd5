// Command pallas is the command-line front door to the Pallas toolkit.
//
// Usage:
//
//	pallas check    [-spec file] [-checker name] [-json] file.c
//	pallas paths    -func name [-db out.json] file.c
//	pallas workflow -func name file.c
//	pallas diff     -fast f -slow g [-suggest] file.c
//	pallas corpus   [-system SYS] [-show id]
//
// check runs the five semantic checkers over a C file (spec directives may
// come from -spec and/or inline `// @pallas:` annotations). paths prints the
// Table-5-style symbolic execution paths of one function. workflow renders
// the Figure-1-style ASCII workflow. diff compares a fast path against its
// slow path (the study's code-comparison tool). corpus browses the built-in
// synthetic evaluation corpus.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pallas"
	"pallas/internal/cfg"
	"pallas/internal/corpus"
	"pallas/internal/cparse"
	"pallas/internal/difftool"
	"pallas/internal/failpoint"
	"pallas/internal/feas"
	"pallas/internal/infer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Deterministic fault injection for crash testing (PALLAS_FAILPOINTS);
	// inert and zero-cost when the variable is unset.
	if err := failpoint.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "pallas:", err)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "paths":
		err = cmdPaths(os.Args[2:])
	case "workflow":
		err = cmdWorkflow(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pallas: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pallas:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pallas — semantic-aware checking for fast-path bugs (ASPLOS'17)

commands:
  check    [-spec file] [-checker name] [-json] [-html out]
           [-precision fast|balanced|strict]
           [-timeout d] [-keep-going] [-workers n] [-analysis-workers n]
           [-journal file] [-resume] [-retries n] [-group-commit]
           [-cache-dir dir] [-cache-bytes n]
           [-incr-dir dir] [-incr-bytes n] [-cache-stats]
           file.c...                                          run the checkers
           (exit: 0 clean, 1 warnings, 2 degraded, 3 fatal;
            -journal checkpoints per-file outcomes, -resume skips files the
            journal already settled, -retries retries transient failures,
            -cache-dir replays unchanged files from the result cache,
            -incr-dir replays unchanged *functions* from the per-function
            memo — only edited functions and their transitive callers are
            re-analyzed — and -cache-stats prints hit/miss/reuse counts;
            -precision selects the feasibility tier: fast explores every
            structural path, balanced prunes interval-contradictory paths,
            strict adds budgeted cross-condition equality reasoning)
  serve    [-addr host:port] [-cache-dir dir] [-cache-bytes n]
           [-incr-dir dir] [-incr-bytes n]
           [-cache-peers host:port] [-cache-replicas n] [-cache-stats]
           [-workers n] [-analysis-workers n] [-timeout d] run the HTTP service
           (POST /v1/analyze, GET /v1/report/{key}, /healthz, /metrics;
            SIGTERM drains in-flight requests and exits 0; -cache-peers
            joins a shared cache tier — misses are served by peer replicas,
            verified end to end, degrading to local on any peer fault)
  cluster  [check flags] [-cluster-workers n] [-worker addr]
           [-journal file] [-resume] [-pathdb out.json]
           [-cache-peers] [-cache-replicas n] [-cache-stats]
           [-status-addr host:port] file.c...      distribute check across
           worker processes with crash recovery; stdout and -pathdb output
           are byte-identical to a single-process check at any worker
           count and under any crash schedule; -cache-peers makes worker
           caches one replicated tier under a coordinator-pushed peer map
  worker   [-addr host:port] [serve flags]        run one cluster worker
           (prints "pallas: worker listening on ADDR" to stderr when bound)
  paths    -func name [-db out.json] file.c              print symbolic paths
  workflow -func name [-dot] file.c                      render the workflow
  diff     -fast f -slow g [-suggest] file.c             compare fast vs slow
  infer    -fast f -slow g file.c                        propose spec directives
  corpus   [-system SYS] [-show id] [-export dir]        browse/export the corpus
`)
}

// cmdCheck analyzes the given files on a bounded worker pool and exits with
// the worst per-file outcome: 0 clean, 1 warnings found, 2 analysis degraded
// (deadline hit, malformed input under -keep-going, crashed stage), 3 fatal.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec file with semantic directives")
	checker := fs.String("checker", "", "run only the named checker")
	asJSON := fs.Bool("json", false, "emit JSON")
	htmlOut := fs.String("html", "", "additionally write an HTML report to this file")
	precision := fs.String("precision", "", "feasibility tier: fast (default; every structural path), balanced (prune interval-contradictory paths), strict (balanced plus budgeted cross-condition equality reasoning)")
	timeout := fs.Duration("timeout", 0, "per-file analysis deadline; expiry degrades, not fails (0 = none)")
	keepGoing := fs.Bool("keep-going", false, "keep analyzing past malformed input, reporting per-file diagnostics")
	workers := fs.Int("workers", 0, "parallel workers for multiple files (0 = GOMAXPROCS)")
	analysisWorkers := fs.Int("analysis-workers", 0, "goroutines per file for per-function extraction and checkers (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
	minWorkers := fs.Int("min-workers", 0, "self-pace: shrink parallelism toward this floor when per-file latency inflates (0 = fixed width)")
	journalPath := fs.String("journal", "", "checkpoint per-file outcomes to this append-only journal (JSONL)")
	resume := fs.Bool("resume", false, "skip files whose content hash already has a terminal journal entry (requires -journal)")
	retries := fs.Int("retries", 0, "retry transient per-file failures up to n times with exponential backoff")
	groupCommit := fs.Bool("group-commit", false, "batch journal fsyncs across workers (higher throughput, same durability)")
	cacheDir := fs.String("cache-dir", "", "replay unchanged files from this persistent result cache (shared with serve)")
	cacheBytes := fs.Int64("cache-bytes", 0, "memory result-cache budget in bytes (0 = default)")
	incrDir := fs.String("incr-dir", "", "function-level incremental memo directory: unchanged functions replay memoized paths instead of re-extracting (output stays byte-identical)")
	incrBytes := fs.Int64("incr-bytes", 0, "incremental memo budget in bytes, memory and disk (0 = default 64MiB; needs -incr-dir or enables a memory-only memo)")
	cacheStats := fs.Bool("cache-stats", false, "print unit-cache and function-memo hit/miss/reuse counts to stderr at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("check: want at least one C file")
	}
	if _, err := feas.ParseTier(*precision); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	specText := ""
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		specText = string(b)
	}
	cfg := pallas.Config{Deadline: *timeout, KeepGoing: *keepGoing, AnalysisWorkers: *analysisWorkers, Precision: *precision}
	if *checker != "" {
		cfg.Checkers = []string{*checker}
	}
	if *incrDir != "" || *incrBytes > 0 {
		cfg.Incremental = &pallas.IncrementalOptions{Dir: *incrDir, MaxBytes: *incrBytes}
	}

	units := make([]pallas.Unit, 0, fs.NArg())
	readErrs := map[string]error{}
	for _, path := range fs.Args() {
		// Every input's directory serves includes, replacing the per-file
		// default of AnalyzeFile.
		if dir := filepath.Dir(path); !contains(cfg.IncludeDirs, dir) {
			cfg.IncludeDirs = append(cfg.IncludeDirs, dir)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			if !*keepGoing {
				return err
			}
			readErrs[path] = err
			continue
		}
		units = append(units, pallas.Unit{Name: filepath.Base(path), Source: string(b), Spec: specText})
	}
	analyzer := pallas.New(cfg)
	results, stats, err := analyzer.AnalyzeBatch(units, pallas.BatchOptions{
		Workers:            *workers,
		MinWorkers:         *minWorkers,
		Retries:            *retries,
		JournalPath:        *journalPath,
		Resume:             *resume,
		JournalGroupCommit: *groupCommit,
		CacheDir:           *cacheDir,
		CacheBytes:         *cacheBytes,
	})
	if err != nil {
		return err
	}

	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for path, err := range readErrs {
		fmt.Fprintf(os.Stderr, "pallas: %s: %v\n", path, err)
		raise(3)
	}
	pexit, err := printUnitResults(results, printOptions{
		asJSON:  *asJSON,
		htmlOut: *htmlOut,
		multi:   fs.NArg() > 1,
	})
	if err != nil {
		return err
	}
	raise(pexit)
	if *journalPath != "" {
		fmt.Fprintf(os.Stderr,
			"pallas: journal %s: %d analyzed, %d resumed, %d retried, %d quarantined\n",
			*journalPath, stats.Analyzed, stats.Skipped, stats.Retried, stats.Quarantined)
		if stats.JournalTornTail {
			fmt.Fprintln(os.Stderr, "pallas: journal: recovered from a torn tail (crashed mid-checkpoint)")
		}
		if stats.JournalQuarantined > 0 {
			fmt.Fprintf(os.Stderr, "pallas: journal: quarantined %d corrupt record(s) to %s.quarantine\n",
				stats.JournalQuarantined, *journalPath)
		}
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "pallas: cache %s: %d hit(s), %d miss(es)\n",
			*cacheDir, stats.CacheHits, stats.CacheMisses)
	}
	if *cacheStats {
		printCacheStats(os.Stderr, analyzer, stats, *precision)
	}
	if exit != 0 {
		os.Exit(exit)
	}
	return nil
}

// printCacheStats renders the -cache-stats summary: the unit-level result
// cache (batch path), the function-level incremental memo, and the
// feasibility layer, one line each, so warm-run wins and pruning activity
// are visible without scraping /metrics.
func printCacheStats(w io.Writer, a *pallas.Analyzer, stats pallas.BatchStats, precision string) {
	fmt.Fprintf(w, "pallas: unit cache: %d hit(s), %d miss(es), %d analyzed\n",
		stats.CacheHits, stats.CacheMisses, stats.Analyzed)
	is, ok := a.IncrStats()
	if !ok {
		fmt.Fprintln(w, "pallas: func memo: off (enable with -incr-dir)")
	} else {
		total := is.FuncHits + is.FuncMisses + is.UnitHits + is.UnitMisses
		reuse := int64(0)
		if total > 0 {
			reuse = (is.FuncHits + is.UnitHits) * 100 / total
		}
		fmt.Fprintf(w, "pallas: func memo: %d hit(s), %d miss(es), %d invalidation(s); unit verdicts: %d hit(s), %d miss(es); reuse %d%%\n",
			is.FuncHits, is.FuncMisses, is.FuncInvalidations, is.UnitHits, is.UnitMisses, reuse)
	}
	if tier, err := feas.ParseTier(precision); err == nil && tier != feas.Fast {
		fst := a.FeasStats()
		fmt.Fprintf(w, "pallas: feas (%s): %d path(s) pruned, %d contradiction(s)\n",
			tier, fst.Pruned, fst.Contradictions)
	} else {
		fmt.Fprintln(w, "pallas: feas: off (fast tier; enable with -precision balanced|strict)")
	}
}

// printOptions configures printUnitResults.
type printOptions struct {
	asJSON  bool
	htmlOut string
	multi   bool // several inputs: HTML file names get a per-unit suffix
}

// printUnitResults renders batch results the way `check` always has —
// reports to stdout, diagnostics and resume notices to stderr — and returns
// the worst exit code (0 clean, 1 warnings, 2 degraded, 3 fatal). `cluster`
// shares it so distributed runs produce byte-identical stdout.
func printUnitResults(results []pallas.UnitResult, opts printOptions) (int, error) {
	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for _, r := range results {
		if r.Skipped {
			// Keep stdout identical to an uninterrupted run; the resume
			// notice goes to stderr only.
			fmt.Fprintf(os.Stderr, "pallas: %s: resumed from journal\n", r.Unit)
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "pallas: %s: %v\n", r.Unit, r.Err)
			for _, d := range r.Diagnostics {
				fmt.Fprintln(os.Stderr, "pallas: "+d.String())
			}
			if r.Quarantined {
				fmt.Fprintf(os.Stderr, "pallas: %s: quarantined after %d attempt(s)\n", r.Unit, max(r.Attempts, 1))
			}
			raise(3)
			continue
		}
		res := r.Result
		if len(res.Report.Warnings) > 0 && !opts.asJSON {
			raise(1)
		}
		if res.Degraded() {
			raise(2)
			for _, d := range res.Diagnostics {
				fmt.Fprintln(os.Stderr, "pallas: "+d.String())
			}
		}
		if opts.htmlOut != "" {
			// With several inputs, suffix the HTML file per input.
			out := opts.htmlOut
			if opts.multi {
				out = strings.TrimSuffix(out, ".html") + "-" + sanitize(r.Unit) + ".html"
			}
			if err := writeHTMLReport(res, out); err != nil {
				return exit, err
			}
		}
		if opts.asJSON {
			if err := res.Report.WriteJSON(os.Stdout); err != nil {
				return exit, err
			}
			continue
		}
		if err := res.Report.WriteText(os.Stdout); err != nil {
			return exit, err
		}
		fmt.Println()
		fmt.Print(res.Report.Summary())
	}
	return exit, nil
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func writeHTMLReport(res *pallas.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Report.WriteHTML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitize maps a file name into a safe HTML-suffix fragment.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func cmdPaths(args []string) error {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	fn := fs.String("func", "", "function to extract")
	dbOut := fs.String("db", "", "write the path database to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("paths: want -func name and one C file")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	a := pallas.New(pallas.Config{})
	fp, err := a.ExtractPaths(fs.Arg(0), string(b), *fn)
	if err != nil {
		return err
	}
	fmt.Printf("%d path(s) of %s", len(fp.Paths), fp.Signature)
	if fp.Truncated {
		fmt.Print(" (truncated)")
	}
	fmt.Println()
	for _, p := range fp.Paths {
		fmt.Print(p)
	}
	if *dbOut != "" {
		res, err := a.AnalyzeSource(fs.Arg(0), string(b), "fastpath "+*fn+"\n")
		if err != nil {
			return err
		}
		if err := res.Paths.Save(*dbOut); err != nil {
			return err
		}
		fmt.Printf("path database written to %s\n", *dbOut)
	}
	return nil
}

func cmdWorkflow(args []string) error {
	fs := flag.NewFlagSet("workflow", flag.ExitOnError)
	fn := fs.String("func", "", "function to render")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of ASCII")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("workflow: want -func name and one C file")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tu, err := cparse.Parse(fs.Arg(0), string(b))
	if err != nil {
		return err
	}
	f := tu.Func(*fn)
	if f == nil {
		return fmt.Errorf("workflow: no function %q", *fn)
	}
	g, err := cfg.Build(f)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(g.Dot())
	} else {
		fmt.Print(cfg.RenderWorkflow(g))
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fast := fs.String("fast", "", "fast-path function")
	slow := fs.String("slow", "", "slow-path function")
	suggest := fs.Bool("suggest", false, "suggest spec directives from the diff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fast == "" || *slow == "" {
		return fmt.Errorf("diff: want -fast f -slow g and one C file")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tu, err := cparse.Parse(fs.Arg(0), string(b))
	if err != nil {
		return err
	}
	ff, sf := tu.Func(*fast), tu.Func(*slow)
	if ff == nil || sf == nil {
		return fmt.Errorf("diff: function not found (fast=%v slow=%v)", ff != nil, sf != nil)
	}
	d := difftool.Compare(tu, ff, sf)
	fmt.Print(d.String())
	if *suggest {
		fmt.Println("suggested spec directives:")
		for _, s := range d.SuggestSpec() {
			fmt.Println("  " + s)
		}
	}
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	fast := fs.String("fast", "", "fast-path function")
	slow := fs.String("slow", "", "slow-path function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fast == "" || *slow == "" {
		return fmt.Errorf("infer: want -fast f -slow g and one C file")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tu, err := cparse.Parse(fs.Arg(0), string(b))
	if err != nil {
		return err
	}
	sugg, err := infer.Infer(tu, *fast, *slow, infer.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("# %d suggested directive(s); review before use\n", len(sugg))
	for _, s := range sugg {
		fmt.Printf("%-50s # %.0f%% — %s\n", s.Directive, s.Confidence*100, s.Reason)
	}
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	system := fs.String("system", "", "filter by system (MM FS NET DEV WB SDN MOB)")
	show := fs.String("show", "", "print one case (source + spec) by id")
	export := fs.String("export", "", "write every case as <dir>/<id>.c + .pls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := corpus.Generate()
	if *export != "" {
		n, err := exportCorpus(reg, *export, *system)
		if err != nil {
			return err
		}
		fmt.Printf("exported %d case(s) to %s\n", n, *export)
		return nil
	}
	if *show != "" {
		c := reg.Get(*show)
		if c == nil {
			return fmt.Errorf("corpus: no case %q", *show)
		}
		fmt.Printf("case %s  [%s, %s, %s]\n", c.ID, c.System, c.Kind, c.Finding)
		fmt.Printf("file: %s\noperation: %s\nconsequence: %s\n", c.File, c.Operation, c.Consequence)
		fmt.Println("--- spec ---")
		fmt.Print(c.Spec)
		fmt.Println("--- source ---")
		fmt.Print(c.Source)
		return nil
	}
	for _, c := range reg.Cases {
		if *system != "" && !strings.EqualFold(string(c.System), *system) {
			continue
		}
		fmt.Printf("%-36s %-4s %-5s %s\n", c.ID, c.System, c.Kind, c.Finding)
	}
	return nil
}

// exportCorpus writes each case's source and spec under dir, one pair of
// files per case (slashes in IDs become directories).
func exportCorpus(reg *corpus.Registry, dir, system string) (int, error) {
	n := 0
	for _, c := range reg.Cases {
		if system != "" && !strings.EqualFold(string(c.System), system) {
			continue
		}
		base := filepath.Join(dir, filepath.FromSlash(c.ID))
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return n, err
		}
		if err := os.WriteFile(base+".c", []byte(c.Source), 0o644); err != nil {
			return n, err
		}
		if err := os.WriteFile(base+".pls", []byte(c.Spec), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
