package paths

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pallas/internal/cparse"
	"pallas/internal/feas"
	"pallas/internal/guard"
)

// walkDiffConfigs are the extraction settings the differential covers:
// every precision tier at the defaults, and the fast tier under a path cap
// small enough that most functions truncate mid-walk.
var walkDiffConfigs = []struct {
	name string
	cfg  Config
}{
	{"fast", Config{MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2, Precision: feas.Fast}},
	{"balanced", Config{MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2, Precision: feas.Balanced}},
	{"strict", Config{MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2, Precision: feas.Strict}},
	{"fast-cap8", Config{MaxPaths: 8, MaxBlockVisits: 2, InlineDepth: 2, Precision: feas.Fast}},
}

// walkDiffGolden holds, per configuration, the SHA-256 of every generated
// function's extraction (JSON, in unit and name order). The hashes were
// recorded from the fork-by-copy walk, which cloned the environment and the
// path prefix at every branch edge; the backtracking walk must reproduce
// them byte for byte. Regenerate only for a deliberate output change.
var walkDiffGolden = map[string]string{
	"fast":      "d5d77c864e42ad3cea2357a481364d26c72c2d5f5199508daefa4281c169b460",
	"balanced":  "4b5890f5861096efa8fadddaa643c7a0df2f1394a610ce773e48b50682f11fd1",
	"strict":    "4b5890f5861096efa8fadddaa643c7a0df2f1394a610ce773e48b50682f11fd1",
	"fast-cap8": "545abf0fe1c2ef75b25178fd73b772877f5ab6fa4194f544aface53e5bfda175",
}

// walkGenPrelude is shared by every generated unit: a struct reached through
// pointer parameters, two globals, and helpers whose summaries carry field
// and global effects, parameter conditions and nested calls.
const walkGenPrelude = `
struct req { int flag; int state; int len; };
int g_count;
int g_mode;
int lookup(int k);
void log_it(int n);
static void mark(struct req *p) { p->flag = 1; g_count = g_count + 1; }
static int check(struct req *p, int n) {
	if (p->state == 2)
		return -1;
	if (n > 8)
		return 1;
	log_it(n);
	return 0;
}
static void reset(struct req *p) {
	p->state = 0;
	p->len = 0;
	if (g_mode)
		g_count = 0;
}
`

// walkGen writes branch-heavy C functions from a seeded generator. Every
// construct the walk treats specially appears: loops that reach
// MaxBlockVisits, switch case and default edges, early returns, truthiness
// exclusion, whole-variable assignment dropping field bindings, and calls
// to summarized helpers.
type walkGen struct {
	r  *rand.Rand
	sb strings.Builder
	// budget caps the branching statements per function so that at the
	// default MaxPaths no function truncates.
	budget int
}

var (
	walkInts = []string{"a", "b", "c", "x", "v"}
	walkPtrs = []string{"r", "q"}
)

func (g *walkGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g *walkGen) line(depth int, format string, args ...any) {
	g.sb.WriteString(strings.Repeat("\t", depth+1))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *walkGen) cond() string {
	switch g.r.Intn(11) {
	case 0:
		return g.pick(walkInts)
	case 1:
		return "!" + g.pick(walkInts)
	case 2:
		return fmt.Sprintf("%s == %d", g.pick(walkInts), g.r.Intn(4))
	case 3:
		return fmt.Sprintf("%d != %s", g.r.Intn(4)-1, g.pick(walkInts))
	case 4:
		return fmt.Sprintf("%s > %d", g.pick(walkInts), g.r.Intn(6))
	case 5:
		return fmt.Sprintf("%s && %s == %d", g.pick(walkInts), g.pick(walkInts), g.r.Intn(3))
	case 6:
		return fmt.Sprintf("%s || %s", g.pick(walkInts), g.pick(walkInts))
	case 7:
		return fmt.Sprintf("%s->state == %d", g.pick(walkPtrs), g.r.Intn(3))
	case 8:
		return fmt.Sprintf("%s->flag", g.pick(walkPtrs))
	case 9:
		return fmt.Sprintf("check(%s, %s) < 0", g.pick(walkPtrs), g.pick(walkInts))
	default:
		return fmt.Sprintf("!(%s && %s)", g.pick(walkInts), g.pick(walkInts))
	}
}

func (g *walkGen) simple(depth int) {
	switch g.r.Intn(12) {
	case 0:
		g.line(depth, "%s = %s + %d;", g.pick([]string{"x", "v"}), g.pick(walkInts), g.r.Intn(5))
	case 1:
		g.line(depth, "%s += %s;", g.pick([]string{"x", "v"}), g.pick(walkInts))
	case 2:
		g.line(depth, "%s->%s = %s;", g.pick(walkPtrs), g.pick([]string{"flag", "state", "len"}), g.pick(walkInts))
	case 3:
		// Whole-variable assignment: every r->field / q->field binding goes.
		g.line(depth, "r = q;")
	case 4:
		g.line(depth, "mark(%s);", g.pick(walkPtrs))
	case 5:
		g.line(depth, "v = check(%s, %s);", g.pick(walkPtrs), g.pick(walkInts))
	case 6:
		g.line(depth, "reset(%s);", g.pick(walkPtrs))
	case 7:
		g.line(depth, "x = lookup(%s);", g.pick(walkInts))
	case 8:
		g.line(depth, "lookup(%d);", g.r.Intn(9))
	case 9:
		g.line(depth, "%s++;", g.pick([]string{"x", "v", "g_count"}))
	case 10:
		g.line(depth, "g_mode = %s ? %d : %s;", g.pick(walkInts), g.r.Intn(3), g.pick(walkInts))
	default:
		g.line(depth, "int t%d = %s * 2;", g.r.Intn(1000), g.pick(walkInts))
	}
}

func (g *walkGen) block(depth, n int) {
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

func (g *walkGen) stmt(depth int) {
	if depth >= 3 || g.budget <= 0 {
		g.simple(depth)
		return
	}
	switch g.r.Intn(10) {
	case 0, 1:
		g.budget--
		g.line(depth, "if (%s) {", g.cond())
		g.block(depth+1, 1+g.r.Intn(2))
		g.line(depth, "}")
	case 2:
		g.budget--
		g.line(depth, "if (%s) {", g.cond())
		g.block(depth+1, 1+g.r.Intn(2))
		g.line(depth, "} else {")
		g.block(depth+1, 1)
		g.line(depth, "}")
	case 3:
		// Early return under a condition.
		g.budget--
		g.line(depth, "if (%s)", g.cond())
		g.line(depth+1, "return %s;", g.pick([]string{"-1", "0", "x", "v + 1", "r->state"}))
	case 4:
		// Truthiness exclusion: the taken edge of `if (k)` refutes k == 0.
		g.budget--
		k := g.pick(walkInts)
		g.line(depth, "if (%s) {", k)
		g.line(depth+1, "if (%s == 0)", k)
		g.line(depth+2, "return 99;")
		g.block(depth+1, 1)
		g.line(depth, "}")
	case 5:
		g.budget -= 2
		tag := g.pick(walkInts)
		g.line(depth, "switch (%s) {", tag)
		g.line(depth, "case 1:")
		g.block(depth+1, 1)
		g.line(depth+1, "break;")
		g.line(depth, "case 2:")
		g.line(depth+1, "return %s;", g.pick(walkInts))
		g.line(depth, "default:")
		g.line(depth+1, "if (%s == 1)", tag)
		g.line(depth+2, "return 98;")
		g.block(depth+1, 1)
		g.line(depth+1, "break;")
		g.line(depth, "}")
	case 6:
		// Loops: the walk unrolls each at most MaxBlockVisits times.
		g.budget--
		if g.r.Intn(2) == 0 {
			g.line(depth, "while (i < %s) {", g.pick(walkInts))
			g.block(depth+1, 1)
			g.line(depth+1, "i++;")
			g.line(depth, "}")
		} else {
			g.line(depth, "for (i = 0; i < %d; i++) {", 1+g.r.Intn(3))
			g.line(depth+1, "if (%s)", g.cond())
			g.line(depth+2, "break;")
			g.block(depth+1, 1)
			g.line(depth, "}")
		}
	case 7:
		// A field binding, then whole-variable assignment, then a test of
		// the field: the test must see the invalidated (symbolic) field.
		g.budget--
		g.line(depth, "r->state = %d;", g.r.Intn(3))
		if g.r.Intn(2) == 0 {
			g.line(depth, "r = q;")
		}
		g.line(depth, "if (r->state == 1)")
		g.line(depth+1, "x = x + 1;")
	default:
		g.simple(depth)
	}
}

// genWalkUnit returns one generated unit and the names of its functions.
func genWalkUnit(seed int64, nfuncs int) (string, []string) {
	g := &walkGen{r: rand.New(rand.NewSource(seed))}
	g.sb.WriteString(walkGenPrelude)
	var names []string
	for f := 0; f < nfuncs; f++ {
		name := fmt.Sprintf("fast_%d_%d", seed, f)
		names = append(names, name)
		fmt.Fprintf(&g.sb, "int %s(int a, int b, int c, struct req *r, struct req *q) {\n", name)
		g.line(0, "int x = 0;")
		g.line(0, "int v = b;")
		g.line(0, "int i = 0;")
		g.budget = 10 + g.r.Intn(4)
		g.block(0, 8+g.r.Intn(4))
		g.line(0, "return %s;", g.pick([]string{"x", "v", "x + v", "r->flag", "0"}))
		g.sb.WriteString("}\n")
	}
	return g.sb.String(), names
}

// walkDiffHash extracts every generated function with a shared extractor per
// unit, fanned out over the given worker count, and hashes the results in
// unit and function order. It also tallies the constructs the generator is
// meant to reach, so a generator change that stops covering them fails.
func walkDiffHash(t *testing.T, c Config, workers int) (string, walkCoverage) {
	t.Helper()
	h := sha256.New()
	var cov walkCoverage
	for seed := int64(1); seed <= 8; seed++ {
		src, names := genWalkUnit(seed, 6)
		tu, err := cparse.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		ex := NewExtractor(tu, c)
		out := make([]*FuncPaths, len(names))
		errs := guard.PoolNamed(guard.StageExtract, len(names), workers,
			func(i int) string { return names[i] },
			func(i int) error {
				fp, err := ex.Extract(names[i])
				out[i] = fp
				return err
			})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, names[i], err)
			}
		}
		for i, fp := range out {
			b, err := json.Marshal(fp)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d %s %d\n", seed, names[i], len(b))
			h.Write(b)
			cov.add(fp)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), cov
}

type walkCoverage struct {
	funcs, paths, truncated, loopRevisits      int
	caseEdges, defaultEdges, earlyReturns      int
	calleeConds, calleeEffects, calleeCalls    int
	refutedReached, invalidatedFieldConditions int
}

func (c *walkCoverage) add(fp *FuncPaths) {
	c.funcs++
	c.paths += len(fp.Paths)
	if fp.Truncated {
		c.truncated++
	}
	// The function's closing return is its last statement, so every path
	// ending on an earlier line left through an early return.
	lastReturn := 0
	for _, p := range fp.Paths {
		if p.Out != nil && p.Out.Line > lastReturn {
			lastReturn = p.Out.Line
		}
	}
	for _, p := range fp.Paths {
		seen := map[int]bool{}
		for _, b := range p.Blocks {
			if seen[b] {
				c.loopRevisits++
				break
			}
			seen[b] = true
		}
		if p.Out != nil && p.Out.Sym == "(I#99)" {
			c.refutedReached++ // must stay 0: the inner k == 0 is refuted
		}
		if p.Out != nil && p.Out.Line < lastReturn {
			c.earlyReturns++
		}
		for _, cd := range p.Conds {
			switch {
			case strings.HasPrefix(cd.Outcome, "case "):
				c.caseEdges++
			case cd.Outcome == "default":
				c.defaultEdges++
			case cd.FromCallee != "":
				c.calleeConds++
			case cd.Expr == "r->state == 1" && strings.Contains(cd.Sym, "(S#r)"):
				c.invalidatedFieldConditions++
			}
		}
		for _, s := range p.States {
			if s.Kind == CallEffect {
				c.calleeEffects++
			}
		}
		for _, cr := range p.Calls {
			if cr.FromCallee != "" {
				c.calleeCalls++
			}
		}
	}
}

// TestBacktrackWalkDifferential runs the generated branch-heavy units under
// every configuration of walkDiffConfigs with 1 and 4 extraction workers
// sharing one extractor per unit (CI runs it under -race). Every run must
// hash to the golden recorded from the fork-by-copy walk, and the generated
// units must reach every construct the walk special-cases.
func TestBacktrackWalkDifferential(t *testing.T) {
	for _, dc := range walkDiffConfigs {
		for _, workers := range []int{1, 4} {
			got, cov := walkDiffHash(t, dc.cfg, workers)
			t.Logf("%s workers=%d: %s %+v", dc.name, workers, got, cov)
			if want := walkDiffGolden[dc.name]; got != want {
				t.Errorf("%s workers=%d: hash %s, want %s", dc.name, workers, got, want)
			}
			if cov.refutedReached != 0 {
				t.Errorf("%s: %d paths reached a branch refuted by exclusion", dc.name, cov.refutedReached)
			}
			if cov.loopRevisits == 0 || cov.caseEdges == 0 || cov.defaultEdges == 0 ||
				cov.earlyReturns == 0 || cov.calleeConds == 0 || cov.calleeEffects == 0 ||
				cov.calleeCalls == 0 || cov.invalidatedFieldConditions == 0 {
				t.Errorf("%s: generator misses a construct: %+v", dc.name, cov)
			}
			if dc.cfg.MaxPaths < 512 && cov.truncated == 0 {
				t.Errorf("%s: no function reached the path cap: %+v", dc.name, cov)
			}
		}
	}
}

// BenchmarkExtractDeep extracts one deep-paths-shaped fast path: nine
// independent branches, some `&&` compounds and some through summarized
// helpers, for 512 paths per extraction: exactly MaxPaths, untruncated.
func BenchmarkExtractDeep(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(walkGenPrelude)
	sb.WriteString("int deep(int a0, int a1, int a2, int a3, int a4, int a5, int a6, int a7, int a8, struct req *r) {\n\tint rc = 0;\n")
	for i := 0; i < 9; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, "\tif (a%d > %d) { rc = rc + %d; mark(r); }\n", i, i, i+1)
		case 1:
			fmt.Fprintf(&sb, "\tif (a%d && a%d != %d) rc = rc * 2;\n", i, i, i)
		default:
			fmt.Fprintf(&sb, "\tif (check(r, a%d) < 0) r->len = rc;\n", i)
		}
	}
	sb.WriteString("\treturn rc;\n}\n")
	tu, err := cparse.Parse("deep.c", sb.String())
	if err != nil {
		b.Fatal(err)
	}
	// Warm the CFG and summary caches so every iteration measures the walk.
	ex := NewExtractor(tu, DefaultConfig())
	fp, err := ex.Extract("deep")
	if err != nil {
		b.Fatal(err)
	}
	if fp.Truncated || len(fp.Paths) != 512 {
		b.Fatalf("deep: %d paths, truncated=%v", len(fp.Paths), fp.Truncated)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract("deep"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(fp.Paths)), "paths/op")
}
