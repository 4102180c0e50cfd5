// Package checkers implements the five Pallas checkers: path state, trigger
// condition, path output, fault handling, and assistant data structure. Each
// checker filters extracted execution paths against the rules of Section 3
// and reports violations as warnings.
package checkers

import (
	"fmt"
	"strings"
	"sync"

	"pallas/internal/cast"
	"pallas/internal/failpoint"
	"pallas/internal/guard"
	"pallas/internal/paths"
	"pallas/internal/report"
	"pallas/internal/spec"
	"pallas/internal/study"
)

// Context carries everything a checker needs for one analysis target.
type Context struct {
	// TU is the merged, parsed translation unit.
	TU *cast.TranslationUnit
	// Spec is the user-provided semantic information.
	Spec *spec.Spec
	// Extractor provides path extraction (shared CFG/summary caches).
	Extractor *paths.Extractor
	// FuncPaths maps function name → extracted paths for every analyzed
	// function (fast paths first).
	FuncPaths map[string]*paths.FuncPaths
	// File is the reported file name.
	File string
	// Budget, when non-nil, bounds the work Run performs; checkers are skipped
	// once it is exhausted and the report is marked degraded.
	Budget *guard.Budget
	// Workers bounds intra-unit parallelism for Run (mirroring the
	// extraction fan-out of paths.Config.Workers): how many checkers execute
	// concurrently over this context. 1 runs them serially; <= 0 means
	// GOMAXPROCS, as in guard.PoolNamed. The merged
	// report is byte-identical either way.
	Workers int
	// Diagnostics accumulates non-fatal problems (unknown spec functions,
	// truncated extractions, crashed checkers) encountered while building and
	// running the context.
	Diagnostics []guard.Diagnostic
}

// Checker is one of the five Pallas tools.
type Checker interface {
	// Name identifies the checker ("path-state", ...).
	Name() string
	// Check analyzes ctx and returns warnings.
	Check(ctx *Context) []report.Warning
}

// All returns the five checkers in paper order.
func All() []Checker {
	return []Checker{
		PathStateChecker{},
		TriggerConditionChecker{},
		PathOutputChecker{},
		FaultHandlingChecker{},
		DataStructChecker{},
	}
}

// ByName returns the named checker, or nil.
func ByName(name string) Checker {
	for _, c := range All() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// NewContext extracts paths for every function the spec names and returns a
// ready-to-check context. With cfg.Workers > 1 the per-function extractions
// fan out across a bounded worker pool; the context (and the first error,
// when any function fails) is identical to a serial run. A panic during
// extraction surfaces as a *guard.PanicError-wrapped error rather than
// crashing the caller, in serial and parallel runs alike.
func NewContext(tu *cast.TranslationUnit, sp *spec.Spec, cfg paths.Config) (*Context, error) {
	ctx, errs, _ := extractContext(tu, sp, cfg)
	// Report the first failure in spec order — the same one a serial run
	// stops at — no matter which worker finished first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

// NewContextTolerant is NewContext for degraded pipelines: spec functions the
// (possibly partially parsed) unit lacks, extraction failures, and extraction
// panics become Diagnostics instead of hard errors, and the surviving
// functions are still checked. The only returned error is an exhausted budget.
// Fault isolation is per function: with cfg.Workers > 1 a crashing
// extraction degrades only its own function's slot.
func NewContextTolerant(tu *cast.TranslationUnit, sp *spec.Spec, cfg paths.Config) (*Context, error) {
	ctx, errs, fns := extractContext(tu, sp, cfg)
	// Diagnostics are appended in spec order (slot order), not completion
	// order, so degraded reports are stable run-to-run.
	for i, err := range errs {
		if err != nil {
			ctx.Diagnostics = append(ctx.Diagnostics, guard.Diag(guard.StageExtract, fns[i], err, true))
		}
	}
	return ctx, ctx.Budget.Err()
}

// extractContext builds a context by extracting every spec-named function,
// serially or fanned out over cfg.Workers goroutines. Results and errors are
// positional (errs[i] belongs to fns[i]); the FuncPaths map and the content
// of every entry depend only on the unit and the spec, never on scheduling.
// Functions missing from the unit produce a per-slot error; the strict
// caller turns the first one into a hard failure, the tolerant caller turns
// each into a diagnostic.
func extractContext(tu *cast.TranslationUnit, sp *spec.Spec, cfg paths.Config) (*Context, []error, []string) {
	ex := paths.NewExtractor(tu, cfg)
	ctx := &Context{TU: tu, Spec: sp, Extractor: ex, FuncPaths: map[string]*paths.FuncPaths{},
		File: tu.File, Budget: cfg.Budget, Workers: cfg.Workers}
	fns := sp.AnalyzedFuncs()
	results := make([]*paths.FuncPaths, len(fns))
	errs := guard.PoolNamed(guard.StageExtract, len(fns), cfg.Workers,
		func(i int) string { return fns[i] },
		func(i int) error {
			fn := fns[i]
			// A unit whose budget is already spent stops scheduling work; the
			// functions extracted before exhaustion keep their slots (which
			// ones those are is inherently timing-dependent, exactly as in a
			// serial run hitting the deadline mid-loop).
			if err := cfg.Budget.Err(); err != nil {
				return nil
			}
			if tu.Func(fn) == nil {
				return fmt.Errorf("checkers: spec names unknown function %q", fn)
			}
			if fp := cfg.Seed[fn]; fp != nil {
				// Memoized replay (paths.Config.Seed): the incremental engine
				// established by fingerprint that extraction would reproduce
				// exactly these paths, so the walk — and its failpoint, which
				// counts real extractions — is skipped.
				results[i] = fp
				return nil
			}
			if err := failpoint.Hit(failpoint.ExtractFunc, fn); err != nil {
				return err
			}
			fp, err := ex.Extract(fn)
			if err != nil {
				return err
			}
			results[i] = fp
			return nil
		})
	for i, fp := range results {
		if fp != nil {
			ctx.FuncPaths[fns[i]] = fp
		}
	}
	return ctx, errs, fns
}

// Run executes the given checkers (all five when list is empty) and returns a
// sorted report. Each warning is annotated with the historically most likely
// failure class for its aspect (from the characterization study).
//
// With ctx.Workers > 1 the checkers run concurrently over the shared
// (read-only) context; each checker's findings land in its own slot and are
// merged in checker-list order before the final stable sort, so the report —
// warnings, their order, and the serialized bytes — is identical to a serial
// run. A crashed checker loses only its own findings; a checker that starts
// after the budget is exhausted is skipped and recorded, exactly as in the
// serial pipeline.
func Run(ctx *Context, list ...Checker) *report.Report {
	if len(list) == 0 {
		list = All()
	}
	r := &report.Report{Target: ctx.File}
	results := make([][]report.Warning, len(list))
	errs := guard.PoolNamed(guard.StageCheck, len(list), ctx.Workers,
		func(i int) string { return list[i].Name() },
		func(i int) error {
			if err := ctx.Budget.Err(); err != nil {
				return fmt.Errorf("skipped: %w", err)
			}
			results[i] = list[i].Check(ctx)
			return nil
		})
	for i, err := range errs {
		if err != nil {
			ctx.Diagnostics = append(ctx.Diagnostics, guard.Diag(guard.StageCheck, list[i].Name(), err, true))
			r.Degraded = true
			continue
		}
		r.Add(results[i]...)
	}
	if len(ctx.Diagnostics) > 0 {
		r.Degraded = true
	}
	// Pruned-path accounting: surface how many continuations the
	// feasibility layer discarded before any checker ran. Seeded (memo-
	// replayed) functions carry their tally in the record, so the report is
	// byte-identical between cold and incremental runs.
	for _, fp := range ctx.FuncPaths {
		r.PathsPruned += fp.Pruned
	}
	for i := range r.Warnings {
		r.Warnings[i].LikelyConsequence = likelyConsequence(r.Warnings[i].Aspect())
	}
	r.Sort()
	return r
}

// likelyByAspect computes the top Table-4 failure class per aspect exactly
// once, process-wide. sync.OnceValue publishes the completed map with a
// happens-before edge, so concurrent Run calls (serve handles requests in
// parallel, and one request may run its checkers in parallel) read it
// race-free; no caller can observe the map mid-population.
var likelyByAspect = sync.OnceValue(func() map[report.Aspect]string {
	m := map[report.Aspect]string{}
	ds := study.Dataset()
	for _, asp := range report.Aspects() {
		ranked := study.LikelyConsequences(ds, asp)
		if len(ranked) > 0 {
			m[asp] = ranked[0].Consequence
		}
	}
	return m
})

// likelyConsequence returns the top Table-4 failure class for an aspect.
func likelyConsequence(a report.Aspect) string { return likelyByAspect()[a] }

// fastPathFuncs yields the fast-path functions with extracted paths.
func (ctx *Context) fastPathFuncs() []*paths.FuncPaths {
	var out []*paths.FuncPaths
	for _, name := range ctx.Spec.FastFuncs() {
		if fp, ok := ctx.FuncPaths[name]; ok {
			out = append(out, fp)
		}
	}
	return out
}

// funcDecl looks up the AST node for a function.
func (ctx *Context) funcDecl(name string) *cast.FuncDecl { return ctx.TU.Func(name) }

// pathReferences reports whether the path mentions the variable anywhere:
// in a condition, a state update (target, root, or symbolic value), a call
// argument, or the output.
func pathReferences(p *paths.ExecPath, name string) bool {
	if p.TestsVar(name) {
		return true
	}
	for _, s := range p.States {
		if s.Root == name || s.Target == name ||
			strings.Contains(s.Value, "#"+name+")") || strings.Contains(s.Target, name+"->") {
			return true
		}
	}
	for _, c := range p.Calls {
		for _, a := range c.Args {
			if a == name || strings.Contains(a, name+"->") || strings.Contains(a, name+".") ||
				strings.Contains(a, "&"+name) || containsWord(a, name) {
				return true
			}
		}
	}
	if p.Out != nil && !p.Out.Void {
		if containsWord(p.Out.Expr, name) || strings.Contains(p.Out.Sym, "#"+name+")") {
			return true
		}
	}
	return false
}

// containsWord reports whether s contains name as a whole identifier word.
func containsWord(s, name string) bool {
	idx := 0
	for {
		i := strings.Index(s[idx:], name)
		if i < 0 {
			return false
		}
		i += idx
		beforeOK := i == 0 || !isIdentChar(s[i-1])
		j := i + len(name)
		afterOK := j >= len(s) || !isIdentChar(s[j])
		if beforeOK && afterOK {
			return true
		}
		idx = i + len(name)
		if idx >= len(s) {
			return false
		}
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
