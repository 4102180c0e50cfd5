package sym

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantFolding(t *testing.T) {
	cases := []struct {
		op   string
		l, r int64
		want int64
	}{
		{"+", 2, 3, 5}, {"-", 2, 3, -1}, {"*", 4, 3, 12}, {"/", 7, 2, 3},
		{"%", 7, 2, 1}, {"<<", 1, 10, 1024}, {">>", 1024, 4, 64},
		{"&", 0xff, 0x0f, 0x0f}, {"|", 1, 2, 3}, {"^", 3, 1, 2},
		{"==", 2, 2, 1}, {"!=", 2, 2, 0}, {"<", 1, 2, 1}, {"<=", 2, 2, 1},
		{">", 1, 2, 0}, {">=", 2, 2, 1}, {"&&", 1, 0, 0}, {"||", 1, 0, 1},
	}
	for _, c := range cases {
		v := NewExpr(c.op, NewInt(c.l), NewInt(c.r))
		n, ok := v.ConcreteInt()
		if !ok || n != c.want {
			t.Errorf("%d %s %d = %v, want %d", c.l, c.op, c.r, v, c.want)
		}
	}
}

func TestUnaryFolding(t *testing.T) {
	if n, _ := NewExpr("-", NewInt(5)).ConcreteInt(); n != -5 {
		t.Errorf("-5 = %d", n)
	}
	if n, _ := NewExpr("~", NewInt(0)).ConcreteInt(); n != -1 {
		t.Errorf("~0 = %d", n)
	}
	if n, _ := NewExpr("!", NewInt(0)).ConcreteInt(); n != 1 {
		t.Errorf("!0 = %d", n)
	}
}

func TestDivModByZeroStaysSymbolic(t *testing.T) {
	for _, op := range []string{"/", "%"} {
		v := NewExpr(op, NewInt(5), NewInt(0))
		if _, ok := v.ConcreteInt(); ok {
			t.Errorf("%s by zero folded", op)
		}
	}
}

func TestSymbolicStaysSymbolic(t *testing.T) {
	v := NewExpr("+", NewSym("a"), NewInt(1))
	if _, ok := v.ConcreteInt(); ok {
		t.Error("symbolic expr reported concrete")
	}
	if v.String() != "((S#a) + (I#1))" {
		t.Errorf("render = %s", v.String())
	}
}

func TestTable5Notation(t *testing.T) {
	if s := NewInt(42).String(); s != "(I#42)" {
		t.Errorf("int = %s", s)
	}
	if s := NewSym("gfp_mask").String(); s != "(S#gfp_mask)" {
		t.Errorf("sym = %s", s)
	}
	if s := NewTemp(1).String(); s != "(V#1)" {
		t.Errorf("temp = %s", s)
	}
	call := NewExpr("memalloc_noio_flags", NewSym("gfp_mask"))
	if s := call.String(); s != "(E#memalloc_noio_flags((S#gfp_mask)))" {
		t.Errorf("call = %s", s)
	}
}

func TestSymbols(t *testing.T) {
	v := NewExpr("+", NewExpr("*", NewSym("b"), NewSym("a")), NewSym("a"))
	got := v.Symbols()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("symbols = %v", got)
	}
}

func TestEqual(t *testing.T) {
	a := NewExpr("+", NewSym("x"), NewInt(1))
	b := NewExpr("+", NewSym("x"), NewInt(1))
	c := NewExpr("+", NewSym("y"), NewInt(1))
	if !Equal(a, b) {
		t.Error("identical exprs not equal")
	}
	if Equal(a, c) {
		t.Error("different exprs equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Error("nil handling wrong")
	}
}

// TestEnvMarkUndoNested forks an environment three deep the way the path
// walk does and checks that each Undo restores its level exactly: bindings,
// deletions and disequalities made under a mark vanish, and everything made
// before it survives.
func TestEnvMarkUndoNested(t *testing.T) {
	e := NewEnv()
	e.Set("x", NewInt(1))
	e.Set("p->f", NewSym("f"))
	e.Exclude("y", 0)
	want0 := snapshot(e)

	m1 := e.Mark()
	e.Set("x", NewInt(2))
	e.Set("z", NewInt(3))
	e.Delete("p->f")
	e.Exclude("y", 4)
	want1 := snapshot(e)

	m2 := e.Mark()
	e.Set("y", NewInt(9)) // supersedes y's disequalities
	e.Delete("x")
	e.Exclude("z", 3)
	e.Exclude("w", 1)
	if e.Excluded("y", 0) || e.Get("x") != nil || !e.Excluded("w", 1) {
		t.Fatalf("level 2 state wrong: %v", snapshot(e))
	}

	want2 := snapshot(e)
	m3 := e.Mark()
	e.Undo(m3) // an empty level undoes nothing
	if got := snapshot(e); got != want2 {
		t.Fatalf("empty undo changed level 2:\n got %s\nwant %s", got, want2)
	}

	e.Undo(m2)
	if got := snapshot(e); got != want1 {
		t.Fatalf("undo to level 1:\n got %s\nwant %s", got, want1)
	}
	e.Undo(m1)
	if got := snapshot(e); got != want0 {
		t.Fatalf("undo to level 0:\n got %s\nwant %s", got, want0)
	}
	if e.Len() != 2 || e.Mark() != m1 {
		t.Fatalf("len = %d, trail = %d, want 2 bindings at mark %d", e.Len(), e.Mark(), m1)
	}
}

// TestEnvUndoRestoresEachOperation pins Set, Delete, DeleteFieldsOf and
// Exclude one at a time, over both bound and unbound names.
func TestEnvUndoRestoresEachOperation(t *testing.T) {
	ops := map[string]func(*Env){
		"set-bound":      func(e *Env) { e.Set("x", NewInt(7)) },
		"set-unbound":    func(e *Env) { e.Set("fresh", NewInt(7)) },
		"delete-bound":   func(e *Env) { e.Delete("x") },
		"delete-unbound": func(e *Env) { e.Delete("fresh") },
		"delete-fields":  func(e *Env) { e.DeleteFieldsOf("p") },
		"exclude-new":    func(e *Env) { e.Exclude("x", 5) },
		"exclude-more":   func(e *Env) { e.Exclude("y", 5) },
		"exclude-again":  func(e *Env) { e.Exclude("y", 0) },
		"set-excluded":   func(e *Env) { e.Set("y", NewInt(0)) },
	}
	for name, op := range ops {
		e := NewEnv()
		e.Set("x", NewInt(1))
		e.Set("p->f", NewInt(2))
		e.Set("p.g", NewInt(3))
		e.Set("pq", NewInt(4))
		e.Exclude("y", 0)
		before := snapshot(e)
		m := e.Mark()
		op(e)
		e.Undo(m)
		if got := snapshot(e); got != before {
			t.Errorf("%s: undo left\n%s\nwant\n%s", name, got, before)
		}
	}
	e := NewEnv()
	e.Set("p->f", NewInt(2))
	e.Set("p.g", NewInt(3))
	e.Set("pq", NewInt(4))
	e.Set("p", NewInt(5))
	e.DeleteFieldsOf("p")
	if got := strings.Join(e.Names(), ","); got != "p,pq" {
		t.Errorf("DeleteFieldsOf(p) left %s, want p,pq", got)
	}
}

// snapshot renders every binding and disequality of e in a canonical order.
func snapshot(e *Env) string {
	var sb strings.Builder
	for _, n := range e.Names() {
		fmt.Fprintf(&sb, "%s=%s ", n, e.Get(n))
	}
	var ne []string
	for n, set := range e.ne {
		for v := range set {
			ne = append(ne, fmt.Sprintf("%s!=%d", n, v))
		}
	}
	sort.Strings(ne)
	sb.WriteString(strings.Join(ne, " "))
	return sb.String()
}

// TestStringCachedMatchesRender checks that the cached rendering of a shared
// subterm is the same string a fresh, uncached value renders to.
func TestStringCachedMatchesRender(t *testing.T) {
	x := NewExpr("+", NewSym("x"), NewTemp(3))
	call := NewExpr("f", x, NewStr("a\"b"), NewInt(-2))
	if got, want := call.String(), `(E#f(((S#x) + (V#3)), (I#"a\"b"), (I#-2)))`; got != want {
		t.Fatalf("render = %s, want %s", got, want)
	}
	outer := NewExpr("!", NewExpr("==", x, NewInt(0)))
	fresh := NewExpr("!", NewExpr("==", NewExpr("+", NewSym("x"), NewTemp(3)), NewInt(0)))
	if outer.String() != fresh.String() || outer.String() != outer.String() {
		t.Fatalf("cached %s, fresh %s", outer, fresh)
	}
}

func TestEnvNamesSorted(t *testing.T) {
	e := NewEnv()
	e.Set("b", NewInt(1))
	e.Set("a", NewInt(2))
	names := e.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

// Property: folding binary integer ops always agrees with direct evaluation.
func TestFoldMatchesGoSemantics(t *testing.T) {
	f := func(l, r int32) bool {
		a, b := int64(l), int64(r)
		checks := []struct {
			op   string
			want int64
			skip bool
		}{
			{"+", a + b, false},
			{"-", a - b, false},
			{"*", a * b, false},
			{"&", a & b, false},
			{"|", a | b, false},
			{"^", a ^ b, false},
			{"/", safeDiv(a, b), b == 0},
		}
		for _, c := range checks {
			if c.skip {
				continue
			}
			v := NewExpr(c.op, NewInt(a), NewInt(b))
			n, ok := v.ConcreteInt()
			if !ok || n != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Property: Equal is reflexive over randomly built expression trees.
func TestEqualReflexive(t *testing.T) {
	f := func(ops []uint8, leaf int64) bool {
		v := NewSym("seed")
		names := []string{"+", "-", "*", "&", "call"}
		for _, o := range ops {
			v = &Value{Kind: Expr, Op: names[int(o)%len(names)], Args: []*Value{v, NewInt(leaf)}}
		}
		return Equal(v, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: String never returns empty and nests parens in balance.
func TestStringBalancedParens(t *testing.T) {
	f := func(ops []uint8) bool {
		v := NewSym("x")
		for _, o := range ops {
			if o%2 == 0 {
				v = NewExpr("+", v, NewSym("y"))
			} else {
				v = NewExpr("f", v)
			}
		}
		s := v.String()
		depth := 0
		for _, r := range s {
			switch r {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth < 0 {
				return false
			}
		}
		return depth == 0 && len(s) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvExclusions(t *testing.T) {
	e := NewEnv()
	e.Exclude("order", 0)
	if !e.Excluded("order", 0) || e.Excluded("order", 1) || e.Excluded("other", 0) {
		t.Fatal("exclusion bookkeeping wrong")
	}
	// An exclusion made under one branch must not leak into its sibling,
	// nor mutate the set the parent already held.
	m := e.Mark()
	e.Exclude("order", 5)
	if !e.Excluded("order", 0) || !e.Excluded("order", 5) {
		t.Fatal("branch lost or missed an exclusion")
	}
	e.Undo(m)
	if e.Excluded("order", 5) {
		t.Fatal("exclusion leaked out of its branch")
	}
	e.Exclude("order", 6) // the sibling branch
	if e.Excluded("order", 5) || !e.Excluded("order", 0) {
		t.Fatal("sibling branch saw the wrong exclusions")
	}
	e.Undo(m)
	// A concrete rebinding supersedes exclusions.
	e.Set("order", NewInt(3))
	if e.Excluded("order", 0) {
		t.Fatal("Set must clear exclusions")
	}
	e.Exclude("order", 7)
	e.Delete("order")
	if e.Excluded("order", 7) {
		t.Fatal("Delete must clear exclusions")
	}
}
