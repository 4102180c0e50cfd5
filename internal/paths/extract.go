package paths

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pallas/internal/cast"
	"pallas/internal/cfg"
	"pallas/internal/ctok"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/metrics"
	"pallas/internal/sym"
)

// Config bounds path extraction.
type Config struct {
	// MaxPaths caps the number of enumerated paths per function.
	MaxPaths int
	// MaxBlockVisits bounds how often one block may appear on a single path;
	// 2 lets every loop contribute its 0- and 1-iteration behaviours.
	MaxBlockVisits int
	// InlineDepth bounds transitive callee summarization.
	InlineDepth int
	// Budget, when non-nil, is charged one step per visited block; once it is
	// exhausted enumeration stops and the affected functions are marked
	// Truncated. A nil Budget imposes no limit.
	Budget *guard.Budget
	// Workers bounds intra-unit parallelism: how many functions of one
	// translation unit are extracted concurrently (each function is still
	// walked by exactly one goroutine). 1 extracts serially; <= 0 means
	// GOMAXPROCS, as in guard.PoolNamed. Extraction
	// output is independent of the setting: the per-function result depends
	// only on the function and the unit, never on scheduling.
	Workers int
	// Seed provides pre-extracted results replayed from the incremental memo
	// (internal/incr): checkers.NewContext fills a seeded function's slot
	// from here instead of extracting it. Seeded entries must be exactly
	// what Extract would produce for the same unit — the memo's fingerprint
	// keys guarantee that. The Extractor itself ignores Seed.
	Seed map[string]*FuncPaths
	// Precision selects the feasibility tier (internal/feas): Fast (the zero
	// value) walks exactly as before the layer existed; Balanced prunes path
	// continuations whose accumulated branch conditions are interval- or
	// disequality-contradictory; Strict adds cross-condition equality
	// unification under a per-function step budget. Pruning only ever
	// removes paths no real execution can take, and the walk stays
	// single-goroutine per function, so output per tier is deterministic at
	// any Workers setting.
	Precision feas.Tier
}

// DefaultConfig mirrors the paper's bounded exploration.
func DefaultConfig() Config {
	return Config{MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2}
}

// Extractor extracts paths for functions of one translation unit. It is safe
// for concurrent use: the CFG and summary caches are guarded, so one
// extractor can fan per-function extraction out across a worker pool (see
// Config.Workers) or be shared by concurrent callers.
type Extractor struct {
	tu  *cast.TranslationUnit
	cfg Config
	// mu guards sums and graphs. Cache values are built outside the lock
	// (duplicate builds are possible and discarded first-wins; builds are
	// pure functions of the immutable TU, so every duplicate is identical),
	// except summaries, which are built under a per-name once so no caller
	// can ever observe a half-built summary (see summary.go).
	mu     sync.Mutex
	sums   map[string]*sumEntry
	graphs map[string]*cfg.Graph
	// Feasibility tallies, accumulated atomically across Extract calls (the
	// per-function walks may run on concurrent workers).
	feasPruned atomic.Int64
	feasContra atomic.Int64
}

// FeasStats reports the extractor's cumulative feasibility activity.
type FeasStats struct {
	// Pruned counts path continuations discarded because their accumulated
	// branch conditions were contradictory — a lower bound on the paths
	// avoided, since one discarded edge can hide a whole subtree.
	Pruned int64
	// Contradictions counts contradictory condition accumulations detected.
	Contradictions int64
}

// FeasStats returns the feasibility tallies of every Extract so far.
func (ex *Extractor) FeasStats() FeasStats {
	return FeasStats{Pruned: ex.feasPruned.Load(), Contradictions: ex.feasContra.Load()}
}

// NewExtractor returns an extractor over tu.
func NewExtractor(tu *cast.TranslationUnit, c Config) *Extractor {
	if c.MaxPaths <= 0 {
		c.MaxPaths = 512
	}
	if c.MaxBlockVisits <= 0 {
		c.MaxBlockVisits = 2
	}
	return &Extractor{tu: tu, cfg: c, sums: map[string]*sumEntry{}, graphs: map[string]*cfg.Graph{}}
}

// TU returns the translation unit being analyzed.
func (ex *Extractor) TU() *cast.TranslationUnit { return ex.tu }

func (ex *Extractor) graph(name string) (*cfg.Graph, error) {
	ex.mu.Lock()
	g, ok := ex.graphs[name]
	ex.mu.Unlock()
	if ok {
		return g, nil
	}
	fn := ex.tu.Func(name)
	if fn == nil {
		return nil, fmt.Errorf("paths: no function %q", name)
	}
	g, err := cfg.Build(fn)
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	if prev, ok := ex.graphs[name]; ok {
		g = prev // another worker built it first; keep one canonical graph
	} else {
		ex.graphs[name] = g
	}
	ex.mu.Unlock()
	return g, nil
}

// Signature renders a function header as "name(p1, p2, ...)".
func Signature(fn *cast.FuncDecl) string {
	parts := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		if p.Name != "" {
			parts[i] = p.Name
		} else {
			parts[i] = p.Type.String()
		}
	}
	return fn.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Extract enumerates the execution paths of the named function.
func (ex *Extractor) Extract(name string) (*FuncPaths, error) {
	g, err := ex.graph(name)
	if err != nil {
		return nil, err
	}
	fp := &FuncPaths{Fn: name, Signature: Signature(g.Fn)}
	st := &walkState{
		ex: ex, g: g, fp: fp, env: sym.NewEnv(), visits: make([]int, len(g.Blocks)),
		texts: map[cast.Expr]string{}, branches: make([]*Condition, len(g.Blocks)),
		sites: map[*cast.CallExpr]*callSite{},
	}
	st.ev = evaluator{st: st}
	for _, p := range g.Fn.Params {
		if p.Name != "" {
			st.env.Set(p.Name, sym.NewSym(p.Name))
		}
	}
	for _, v := range ex.tu.Globals() {
		st.env.Set(v.Name, sym.NewSym(v.Name))
	}
	// Feasibility state rides alongside the environment; nil in the Fast
	// tier, where the walk must stay byte-identical to the pre-layer
	// behavior. Strict's step budget is per function (walk is one
	// goroutine), so its pruning decisions are deterministic too.
	fs := feas.New(ex.cfg.Precision, nil)
	st.walk(g.Entry, fs)
	for i, p := range fp.Paths {
		p.Index = i
	}
	if fp.Pruned > 0 || fs.Contradictions() > 0 {
		ex.feasPruned.Add(int64(fp.Pruned))
		ex.feasContra.Add(fs.Contradictions())
		metrics.Default.Counter(metrics.MetricFeasPathsPruned, metrics.HelpFeasPathsPruned).Add(int64(fp.Pruned))
		metrics.Default.Counter(metrics.MetricFeasContradictions, metrics.HelpFeasContradictions).Add(fs.Contradictions())
	}
	return fp, nil
}

// ExtractAll extracts paths for every function with a body, sorted by name.
func (ex *Extractor) ExtractAll() ([]*FuncPaths, error) {
	fns := ex.tu.Funcs()
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	out := make([]*FuncPaths, 0, len(fns))
	for _, fn := range fns {
		fp, err := ex.Extract(fn.Name)
		if err != nil {
			return out, err
		}
		out = append(out, fp)
	}
	return out, nil
}

// walkState is one function's depth-first path walk. The walk backtracks
// instead of forking: the environment and the path prefix (blocks, conds,
// states, calls, the temp counter and the per-block visit counts) are one
// mutable stack, marked before each block and each branch edge and restored
// to the mark once that subtree is explored. emit copies the prefix, so
// every ExecPath owns its slices. One goroutine walks one function, which is
// also what lets sym.Value cache its rendering without locks.
type walkState struct {
	ex *Extractor
	g  *cfg.Graph
	fp *FuncPaths
	ev evaluator

	env    *sym.Env
	blocks []int
	conds  []Condition
	states []StateUpdate
	calls  []CallRecord
	// visits counts each block's occurrences on the current path, indexed
	// by block ID (the CFG numbers its blocks densely from 0).
	visits []int
	tempN  int

	// The walk passes the same AST nodes on every path through them, so
	// their path-independent renderings are built once per walk: expression
	// texts, each branch block's condition record (all but Sym and
	// Outcome), and each call site.
	texts    map[cast.Expr]string
	branches []*Condition
	sites    map[*cast.CallExpr]*callSite
}

// text returns cast.ExprString(e), rendered once per walk.
func (st *walkState) text(e cast.Expr) string {
	s, ok := st.texts[e]
	if !ok {
		s = cast.ExprString(e)
		st.texts[e] = s
	}
	return s
}

// branch returns the condition record shared by every edge of b's branch.
func (st *walkState) branch(b *cfg.Block) *Condition {
	c := st.branches[b.ID]
	if c == nil {
		c = &Condition{
			Expr: st.text(b.Cond), Vars: cast.Idents(b.Cond),
			Fields: fieldPaths(b.Cond), Line: b.Cond.Pos().Line,
		}
		st.branches[b.ID] = c
	}
	return c
}

// walkMark is a point on the walk's stack to backtrack to.
type walkMark struct {
	env, blocks, conds, states, calls, tempN int
}

func (st *walkState) mark() walkMark {
	return walkMark{
		env: st.env.Mark(), blocks: len(st.blocks), conds: len(st.conds),
		states: len(st.states), calls: len(st.calls), tempN: st.tempN,
	}
}

func (st *walkState) undo(m walkMark) {
	st.env.Undo(m.env)
	st.blocks = st.blocks[:m.blocks]
	st.conds = st.conds[:m.conds]
	st.states = st.states[:m.states]
	st.calls = st.calls[:m.calls]
	st.tempN = m.tempN
}

// walk explores every path continuing through b and returns with the walk
// state exactly as it found it.
func (st *walkState) walk(b *cfg.Block, fs *feas.State) {
	if st.fp.Truncated {
		// Already degraded (budget exhaustion or the path cap); never clear
		// the flag — a budget-truncated function with room left under
		// MaxPaths must still report as truncated.
		return
	}
	if len(st.fp.Paths) >= st.ex.cfg.MaxPaths {
		st.fp.Truncated = true
		return
	}
	if st.ex.cfg.Budget.Step() != nil {
		// Budget exhausted (deadline, steps, or cancellation): keep whatever
		// paths we already have and mark the function truncated. The caller
		// surfaces the degradation via Budget.Err.
		st.fp.Truncated = true
		return
	}
	if st.visits[b.ID] >= st.ex.cfg.MaxBlockVisits {
		return // loop bound reached; abandon this continuation
	}
	enter := st.mark()
	st.visits[b.ID]++
	st.blocks = append(st.blocks, b.ID)
	st.block(b, fs)
	st.visits[b.ID]--
	st.undo(enter)
}

// block evaluates b's statements on the current path and explores its
// successors.
func (st *walkState) block(b *cfg.Block, fs *feas.State) {
	ev := &st.ev
	var ret *cast.ReturnStmt
	for _, s := range b.Stmts {
		ev.stmt(s)
		if r, ok := s.(*cast.ReturnStmt); ok {
			ret = r
		}
	}

	if b == st.g.Exit || ret != nil {
		st.emit(ret)
		return
	}
	if len(b.Succs) == 0 {
		st.emit(nil)
		return
	}

	if b.Cond == nil {
		// Unconditional: single successor expected.
		st.walk(b.Succs[0].To, fs)
		return
	}

	symv := ev.eval(b.Cond)
	// Every edge records the same condition text and rendering; only the
	// outcome differs.
	cond := *st.branch(b)
	cond.Sym = symv.String()

	// Disequality refutation: a symbolic equality over an excluded value has
	// a known outcome even though the operand itself is unbound.
	known, knownVal := refuteByExclusion(st.env, b.Cond)

	for _, e := range b.Succs {
		// Concrete condition pruning: when the condition folds to a constant,
		// only the matching boolean edge is feasible.
		if n, ok := symv.ConcreteInt(); ok && (e.Kind == cfg.True || e.Kind == cfg.False) {
			if (n != 0) != (e.Kind == cfg.True) {
				continue
			}
		}
		if known && (e.Kind == cfg.True || e.Kind == cfg.False) {
			if knownVal != (e.Kind == cfg.True) {
				continue
			}
		}
		edge := st.mark()
		st.follow(b, e, symv, cond, fs)
		st.undo(edge)
	}
}

// follow refines the walk state with what edge e of b's branch implies and
// walks its target. The caller undoes the refinement afterwards.
func (st *walkState) follow(b *cfg.Block, e cfg.Edge, symv *sym.Value, cond Condition, fs *feas.State) {
	branchFS := fs.Clone()
	// Branch refinement: boolean edges learn the condition's truth value,
	// Case edges bind the switch tag to the matched label, and Default edges
	// learn that the tag matches no label.
	switch e.Kind {
	case cfg.True, cfg.False:
		taken := e.Kind == cfg.True
		refineEnv(st.env, b.Cond, taken)
		branchFS.Assert(symv, taken)
	case cfg.Case:
		refineCaseEnv(st.env, b.Cond, e.Label)
		if n, ok := caseLabelInt(e.Label); ok {
			branchFS.Assert(sym.NewExpr("==", symv, sym.NewInt(n)), true)
		}
	case cfg.Default:
		refineDefaultEnv(st.env, b.Cond, b.Succs)
		for _, sib := range b.Succs {
			if sib.Kind != cfg.Case {
				continue
			}
			if n, ok := caseLabelInt(sib.Label); ok {
				branchFS.Assert(sym.NewExpr("!=", symv, sym.NewInt(n)), true)
			}
		}
	}
	// Feasibility pruning runs after the concrete and exclusion prunes, so
	// it only ever discards continuations the Fast tier would still have
	// walked; with a nil state (Fast) nothing is ever pruned.
	if branchFS.Contradiction() {
		st.fp.Pruned++
		return
	}
	cond.Outcome = e.Kind.String()
	if e.Kind == cfg.Case {
		cond.Outcome = "case " + e.Label
	}
	st.conds = append(st.conds, cond)
	st.walk(e.To, branchFS)
}

// refineEnv narrows the symbolic environment with what a taken branch
// implies, so later conditions over the same variable fold concretely and
// infeasible continuations are pruned. Only equalities, disequalities and
// plain truthiness are learned — sound and cheap:
//
//	if (x == K) taken      →  x = K
//	if (x != K) not taken  →  x = K
//	if (x) not taken       →  x = 0
//	if (x) taken           →  x ≠ 0 (recorded via Exclude)
//	if (!x) taken          →  x = 0
//
// Conjunctions distribute on the true edge (a && b true implies both), and
// disjunctions distribute on the false edge (a || b false refutes both).
func refineEnv(env *sym.Env, cond cast.Expr, taken bool) {
	switch x := cond.(type) {
	case *cast.IdentExpr:
		if taken {
			// The taken edge of a truthiness branch proves x ≠ 0, so a later
			// `if (x == 0)` inside the branch is refuted by exclusion.
			env.Exclude(x.Name, 0)
		} else {
			env.Set(x.Name, sym.NewInt(0))
		}
	case *cast.UnaryExpr:
		if x.Op == ctok.Not {
			refineEnv(env, x.X, !taken)
		}
	case *cast.BinaryExpr:
		switch x.Op {
		case ctok.EqEq, ctok.NotEq:
			id, c := equalityOperands(x)
			if id == "" {
				return
			}
			if taken == (x.Op == ctok.EqEq) {
				env.Set(id, sym.NewInt(c))
			} else {
				env.Exclude(id, c)
			}
		case ctok.AndAnd:
			if taken {
				refineEnv(env, x.L, true)
				refineEnv(env, x.R, true)
			}
		case ctok.OrOr:
			if !taken {
				refineEnv(env, x.L, false)
				refineEnv(env, x.R, false)
			}
		}
	}
}

// emit records the current path. It copies the walk's stack, which keeps
// changing after emit returns.
func (st *walkState) emit(ret *cast.ReturnStmt) {
	if len(st.fp.Paths) >= st.ex.cfg.MaxPaths {
		st.fp.Truncated = true
		return
	}
	p := &ExecPath{
		Fn:        st.fp.Fn,
		Signature: st.fp.Signature,
		Blocks:    append([]int(nil), st.blocks...),
		Conds:     append([]Condition(nil), st.conds...),
		States:    append([]StateUpdate(nil), st.states...),
		Calls:     append([]CallRecord(nil), st.calls...),
	}
	out := &Output{Void: true}
	if ret != nil {
		out.Line = ret.P.Line
		if ret.X != nil {
			out.Void = false
			out.Expr = st.text(ret.X)
			out.Sym = st.ev.evalNoEffects(ret.X).String()
		}
	}
	p.Out = out
	markChecked(p)
	st.fp.Paths = append(st.fp.Paths, p)
}

// refineCaseEnv binds a switch tag to the matched case label when both are
// simple (an identifier tag and an integer or enum-like label).
func refineCaseEnv(env *sym.Env, tag cast.Expr, label string) {
	id, ok := tag.(*cast.IdentExpr)
	if !ok {
		return
	}
	n, ok := caseLabelInt(label)
	if !ok {
		return // enum-named labels would need the TU; leave symbolic
	}
	env.Set(id.Name, sym.NewInt(n))
}

// refineDefaultEnv records, on a switch default edge, that the tag equals
// none of the sibling case labels, so a later `if (tag == CASE_K)` under
// default is refuted by exclusion.
func refineDefaultEnv(env *sym.Env, tag cast.Expr, succs []cfg.Edge) {
	id, ok := tag.(*cast.IdentExpr)
	if !ok {
		return
	}
	for _, e := range succs {
		if e.Kind != cfg.Case {
			continue
		}
		if n, ok := caseLabelInt(e.Label); ok {
			env.Exclude(id.Name, n)
		}
	}
}

// caseLabelInt parses a case label's rendered text as an integer (decimal,
// hex or octal, as ExprString renders literal labels).
func caseLabelInt(label string) (int64, bool) {
	n, err := strconv.ParseInt(label, 0, 64)
	return n, err == nil
}

// intConst extracts the value of a constant comparison operand: integer
// literals, single-byte character constants, and unary minus over either —
// so `x == -1` and `-1 == x` refine identically.
func intConst(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntExpr:
		return x.Value, true
	case *cast.CharExpr:
		if len(x.Value) == 1 {
			return int64(x.Value[0]), true
		}
	case *cast.UnaryExpr:
		if x.Op == ctok.Minus {
			if n, ok := intConst(x.X); ok {
				return -n, true
			}
		}
	}
	return 0, false
}

// equalityOperands extracts (ident, constant) from `x == K` / `K == x`
// shaped comparisons; returns "" when the shape does not match. The shapes
// are checked in both operand orders, so refinement is order-independent.
func equalityOperands(x *cast.BinaryExpr) (string, int64) {
	if id, ok := x.L.(*cast.IdentExpr); ok {
		if c, ok2 := intConst(x.R); ok2 {
			return id.Name, c
		}
	}
	if id, ok := x.R.(*cast.IdentExpr); ok {
		if c, ok2 := intConst(x.L); ok2 {
			return id.Name, c
		}
	}
	return "", 0
}

// refuteByExclusion decides a symbolic equality condition using recorded
// disequalities: `x == K` with x≠K known is false; `x != K` is true.
func refuteByExclusion(env *sym.Env, cond cast.Expr) (known bool, value bool) {
	x, ok := cond.(*cast.BinaryExpr)
	if !ok {
		return false, false
	}
	if x.Op != ctok.EqEq && x.Op != ctok.NotEq {
		return false, false
	}
	id, c := equalityOperands(x)
	if id == "" || !env.Excluded(id, c) {
		return false, false
	}
	// Exclusions only apply while the variable is still symbolic; a concrete
	// rebinding would have cleared them via Set.
	return true, x.Op == ctok.NotEq
}

// markChecked sets CallRecord.ResultChecked for calls whose receiving lvalue
// or call expression is referenced by a later condition on the path.
func markChecked(p *ExecPath) {
	for i := range p.Calls {
		c := &p.Calls[i]
		callText := c.Name + "("
		for _, cond := range p.Conds {
			if strings.Contains(cond.Expr, callText) {
				c.ResultChecked = true
				break
			}
			if c.AssignedTo != "" {
				for _, v := range cond.Vars {
					if v == c.AssignedTo {
						c.ResultChecked = true
					}
				}
				for _, f := range cond.Fields {
					if f == c.AssignedTo {
						c.ResultChecked = true
					}
				}
			}
			if c.ResultChecked {
				break
			}
		}
	}
}

// fieldPaths collects canonical member-access paths in an expression.
func fieldPaths(e cast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	cast.Walk(e, func(n cast.Node) bool {
		if m, ok := n.(*cast.MemberExpr); ok {
			s := cast.ExprString(m)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Symbolic statement/expression evaluation
// ---------------------------------------------------------------------------

// evaluator evaluates statements and expressions against the walk's current
// environment and path prefix.
type evaluator struct {
	st *walkState
	// silent suppresses effect recording (used for return-expression
	// re-evaluation where effects were already recorded).
	silent bool
}

func (ev *evaluator) stmt(s cast.Stmt) {
	switch x := s.(type) {
	case *cast.DeclStmt:
		var v *sym.Value
		if x.Init != nil {
			v = ev.eval(x.Init)
			ev.bindCallResult(x.Init, x.Name)
		} else {
			v = sym.NewSym(x.Name)
		}
		ev.st.env.Set(x.Name, v)
		ev.record(StateUpdate{Target: x.Name, Root: x.Name, Value: v.String(), Kind: Decl, Line: x.P.Line})
	case *cast.ExprStmt:
		before := len(ev.st.calls)
		ev.eval(x.X)
		// A call used directly as a statement discards its result.
		if c, ok := stripCasts(x.X).(*cast.CallExpr); ok && len(ev.st.calls) > before {
			last := &ev.st.calls[len(ev.st.calls)-1]
			if name, ok2 := c.Fun.(*cast.IdentExpr); ok2 && last.Name == name.Name {
				last.ResultUsed = false
			}
		}
	case *cast.ReturnStmt:
		if x.X != nil {
			ev.eval(x.X)
		}
	case *cast.CompoundStmt:
		for _, sub := range x.Stmts {
			ev.stmt(sub)
		}
	}
}

func (ev *evaluator) record(u StateUpdate) {
	if ev.silent {
		return
	}
	ev.st.states = append(ev.st.states, u)
}

func (ev *evaluator) recordCall(c CallRecord) {
	if ev.silent {
		return
	}
	ev.st.calls = append(ev.st.calls, c)
}

func (ev *evaluator) fresh() *sym.Value {
	ev.st.tempN++
	return sym.NewTemp(ev.st.tempN)
}

// evalNoEffects evaluates without recording state updates or calls.
func (ev *evaluator) evalNoEffects(e cast.Expr) *sym.Value {
	silent := ev.silent
	ev.silent = true
	v := ev.eval(e)
	ev.silent = silent
	return v
}

func (ev *evaluator) eval(e cast.Expr) *sym.Value {
	switch x := e.(type) {
	case nil:
		return sym.NewSym("void")
	case *cast.IdentExpr:
		if v := ev.st.env.Get(x.Name); v != nil {
			return v
		}
		if v, ok := ev.st.ex.tu.EnumValue(x.Name); ok {
			return sym.NewInt(v)
		}
		return sym.NewSym(x.Name)
	case *cast.IntExpr:
		return sym.NewInt(x.Value)
	case *cast.FloatExpr:
		return sym.NewSym("float:" + x.Text)
	case *cast.StrExpr:
		return sym.NewStr(x.Value)
	case *cast.CharExpr:
		if len(x.Value) == 1 {
			return sym.NewInt(int64(x.Value[0]))
		}
		return sym.NewSym("char:" + x.Value)
	case *cast.AssignExpr:
		return ev.assign(x)
	case *cast.BinaryExpr:
		l := ev.eval(x.L)
		r := ev.eval(x.R)
		return sym.NewExpr(x.Op.String(), l, r)
	case *cast.UnaryExpr:
		switch x.Op {
		case ctok.Inc, ctok.Dec:
			return ev.incdec(x.X, x.Op, x.Pos())
		case ctok.KwSizeof:
			return sym.NewExpr("sizeof", ev.evalNoEffects(x.X))
		case ctok.Amp:
			return sym.NewExpr("&", ev.evalNoEffects(x.X))
		case ctok.Star:
			return sym.NewExpr("*", ev.eval(x.X))
		default:
			return sym.NewExpr(x.Op.String(), ev.eval(x.X))
		}
	case *cast.PostfixExpr:
		return ev.incdec(x.X, x.Op, x.Pos())
	case *cast.CondExpr:
		c := ev.eval(x.Cond)
		if n, ok := c.ConcreteInt(); ok {
			if n != 0 {
				return ev.eval(x.Then)
			}
			return ev.eval(x.Else)
		}
		t := ev.eval(x.Then)
		f := ev.eval(x.Else)
		return sym.NewExpr("?:", c, t, f)
	case *cast.CallExpr:
		return ev.call(x)
	case *cast.MemberExpr:
		path := ev.st.text(x)
		if v := ev.st.env.Get(path); v != nil {
			return v
		}
		base := ev.evalNoEffects(x.X)
		op := "."
		if x.Arrow {
			op = "->"
		}
		return sym.NewExpr(op, base, sym.NewSym(x.Field))
	case *cast.IndexExpr:
		base := ev.eval(x.X)
		idx := ev.eval(x.Index)
		return sym.NewExpr("[]", base, idx)
	case *cast.CastExpr:
		return ev.eval(x.X)
	case *cast.SizeofTypeExpr:
		return sym.NewInt(int64(x.Type.SizeOf()))
	case *cast.CommaExpr:
		ev.eval(x.L)
		return ev.eval(x.R)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			ev.eval(el)
		}
		return ev.fresh()
	}
	return ev.fresh()
}

func (ev *evaluator) assign(x *cast.AssignExpr) *sym.Value {
	rhs := ev.eval(x.R)
	if x.Op != ctok.Assign {
		// compound: a += b ⇒ a = a op b
		cur := ev.evalNoEffects(x.L)
		op := strings.TrimSuffix(x.Op.String(), "=")
		rhs = sym.NewExpr(op, cur, rhs)
	}
	target := ev.st.text(x.L)
	root := cast.RootIdent(x.L)
	ev.bindCallResult(x.R, target)
	ev.st.env.Set(target, rhs)
	// Writing through the whole variable invalidates field bindings.
	if _, isIdent := x.L.(*cast.IdentExpr); isIdent {
		ev.st.env.DeleteFieldsOf(target)
	}
	ev.record(StateUpdate{Target: target, Root: root, Value: rhs.String(), Kind: Assign, Line: x.P.Line})
	return rhs
}

// stripCasts unwraps cast expressions.
func stripCasts(e cast.Expr) cast.Expr {
	for {
		if c, ok := e.(*cast.CastExpr); ok {
			e = c.X
			continue
		}
		return e
	}
}

// bindCallResult marks the most recent call record as assigned to target when
// rhs is (after casts) a direct call expression.
func (ev *evaluator) bindCallResult(rhs cast.Expr, target string) {
	if ev.silent || len(ev.st.calls) == 0 {
		return
	}
	c, ok := stripCasts(rhs).(*cast.CallExpr)
	if !ok {
		return
	}
	name, ok := c.Fun.(*cast.IdentExpr)
	if !ok {
		return
	}
	last := &ev.st.calls[len(ev.st.calls)-1]
	if last.Name == name.Name && last.AssignedTo == "" {
		last.AssignedTo = target
		last.ResultUsed = true
	}
}

func (ev *evaluator) incdec(l cast.Expr, op ctok.Kind, pos ctok.Pos) *sym.Value {
	cur := ev.evalNoEffects(l)
	delta := sym.NewInt(1)
	var next *sym.Value
	if op == ctok.Inc {
		next = sym.NewExpr("+", cur, delta)
	} else {
		next = sym.NewExpr("-", cur, delta)
	}
	target := ev.st.text(l)
	ev.st.env.Set(target, next)
	ev.record(StateUpdate{Target: target, Root: cast.RootIdent(l), Value: next.String(), Kind: IncDec, Line: pos.Line})
	return cur
}

func (ev *evaluator) call(x *cast.CallExpr) *sym.Value {
	site := ev.st.site(x)
	argVals := make([]*sym.Value, len(x.Args))
	for i, a := range x.Args {
		argVals[i] = ev.eval(a)
	}
	rec := CallRecord{Name: site.name, Args: site.args, Line: x.P.Line, ResultUsed: true}

	// Apply a callee summary when available: effects on globals and on
	// fields reached through pointer arguments are replayed into the
	// caller's path, tagged with the callee name.
	if in := site.inlined; in != nil && !ev.silent {
		rec.Inlined = true
		for _, eff := range in.effects {
			ev.st.env.Set(eff.Target, ev.fresh())
			ev.record(eff)
		}
		ev.st.conds = append(ev.st.conds, in.conds...)
		for _, c := range in.calls {
			ev.recordCall(c)
		}
	}
	ev.recordCall(rec)
	return sym.NewExpr(site.name, argVals...)
}

// callSite is the path-independent part of one call expression.
type callSite struct {
	name string
	args []string // rendered arguments, shared by every CallRecord of the site
	// inlined is the callee summary instantiated at this site; nil when
	// inlining is off or the callee has no summary.
	inlined *inlinedCall
}

// inlinedCall is a callee summary renamed into the caller's terms.
type inlinedCall struct {
	effects []StateUpdate
	conds   []Condition
	calls   []CallRecord
}

// site returns x's call site, built on the walk's first visit to x.
func (st *walkState) site(x *cast.CallExpr) *callSite {
	if s, ok := st.sites[x]; ok {
		return s
	}
	s := &callSite{args: make([]string, len(x.Args))}
	if id, ok := x.Fun.(*cast.IdentExpr); ok {
		s.name = id.Name
	} else {
		s.name = st.text(x.Fun)
	}
	for i, a := range x.Args {
		s.args[i] = st.text(a)
	}
	if sum := st.ex.summary(s.name, st.ex.cfg.InlineDepth); sum != nil {
		s.inlined = instantiate(sum, x, s.args)
	}
	st.sites[x] = s
	return s
}

// instantiate renames a callee summary into the caller's terms at call,
// whose arguments render as args.
func instantiate(sum *Summary, call *cast.CallExpr, args []string) *inlinedCall {
	rename := func(target string) (string, bool) {
		// Effects on globals keep their name; effects rooted at a parameter
		// are rewritten in terms of the actual argument expression.
		root := target
		rest := ""
		for i := 0; i < len(target); i++ {
			if target[i] == '-' || target[i] == '.' {
				root = target[:i]
				rest = target[i:]
				break
			}
		}
		for pi, pn := range sum.ParamNames {
			if pn == root {
				if pi < len(args) {
					return args[pi] + rest, true
				}
				return "", false
			}
		}
		if sum.Globals[root] {
			return target, true
		}
		return "", false
	}
	in := &inlinedCall{}
	for _, eff := range sum.Effects {
		t, ok := rename(eff.Target)
		if !ok {
			continue
		}
		root := t
		for i := 0; i < len(t); i++ {
			if t[i] == '-' || t[i] == '.' || t[i] == '[' {
				root = t[:i]
				break
			}
		}
		in.effects = append(in.effects, StateUpdate{
			Target: t, Root: root, Value: eff.Value, Kind: CallEffect, Line: call.P.Line, Callee: sum.Name,
		})
	}
	for _, cc := range sum.Conds {
		t, ok := rename(cc.Target)
		if !ok {
			continue
		}
		in.conds = append(in.conds, Condition{
			Expr: cc.Expr, Sym: "(S#" + t + ")", Outcome: "callee",
			Vars: []string{t}, Line: call.P.Line, FromCallee: sum.Name,
		})
	}
	for _, callee := range sum.Calls {
		in.calls = append(in.calls, CallRecord{Name: callee, Line: call.P.Line, Inlined: true, FromCallee: sum.Name})
	}
	return in
}
