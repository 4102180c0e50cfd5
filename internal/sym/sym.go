// Package sym implements the symbolic value domain used by the path
// extractor. Table 5 of the paper shows the notation it reproduces:
//
//	S#name   symbolic expression (an input or otherwise unknown value)
//	I#n      concrete integer
//	V#n      temporary introduced for a call result
//	E#f(...) symbol representing the result of an expression / call
//
// Values are immutable; environments map variable names to values.
//
// A Value caches its rendering on first String call. That cache is written
// without synchronization, so a Value must stay within one goroutine: the
// path extractor builds and renders every Value inside one function's
// single-goroutine walk and publishes only the rendered strings.
package sym

import (
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates symbolic values.
type Kind int

// Value kinds.
const (
	// Int is a concrete integer (I#).
	Int Kind = iota
	// Sym is a free symbol, typically a function input (S#).
	Sym
	// Temp is a fresh temporary introduced for an opaque result (V#).
	Temp
	// Expr is the symbolic result of applying an operator or call (E#).
	Expr
	// Str is a string constant.
	Str
)

// Value is one symbolic value.
type Value struct {
	Kind Kind
	// Int payload.
	N int64
	// Sym/Temp payload: name ("gfp_mask") or temp id ("1").
	Name string
	// Expr payload: operator or callee name plus operands.
	Op   string
	Args []*Value
	// s caches String; "" until first rendered (no rendering is empty).
	s string
}

// NewInt returns a concrete integer value.
func NewInt(n int64) *Value { return &Value{Kind: Int, N: n} }

// NewSym returns a free symbol named after an input variable.
func NewSym(name string) *Value { return &Value{Kind: Sym, Name: name} }

// NewTemp returns the numbered temporary V#n.
func NewTemp(n int) *Value { return &Value{Kind: Temp, Name: strconv.Itoa(n)} }

// NewStr returns a string constant value.
func NewStr(s string) *Value { return &Value{Kind: Str, Name: s} }

// NewExpr returns the symbolic application op(args...). Constant folding for
// binary integer operators is applied when possible.
func NewExpr(op string, args ...*Value) *Value {
	if v, ok := fold(op, args); ok {
		return v
	}
	return &Value{Kind: Expr, Op: op, Args: args}
}

func fold(op string, args []*Value) (*Value, bool) {
	if len(args) == 2 && args[0] != nil && args[1] != nil &&
		args[0].Kind == Int && args[1].Kind == Int {
		l, r := args[0].N, args[1].N
		switch op {
		case "+":
			return NewInt(l + r), true
		case "-":
			return NewInt(l - r), true
		case "*":
			return NewInt(l * r), true
		case "/":
			if r != 0 {
				return NewInt(l / r), true
			}
		case "%":
			if r != 0 {
				return NewInt(l % r), true
			}
		case "<<":
			if r >= 0 && r < 64 {
				return NewInt(l << uint(r)), true
			}
		case ">>":
			if r >= 0 && r < 64 {
				return NewInt(l >> uint(r)), true
			}
		case "&":
			return NewInt(l & r), true
		case "|":
			return NewInt(l | r), true
		case "^":
			return NewInt(l ^ r), true
		case "==":
			return boolInt(l == r), true
		case "!=":
			return boolInt(l != r), true
		case "<":
			return boolInt(l < r), true
		case "<=":
			return boolInt(l <= r), true
		case ">":
			return boolInt(l > r), true
		case ">=":
			return boolInt(l >= r), true
		case "&&":
			return boolInt(l != 0 && r != 0), true
		case "||":
			return boolInt(l != 0 || r != 0), true
		}
	}
	if len(args) == 1 && args[0] != nil && args[0].Kind == Int {
		switch op {
		case "-":
			return NewInt(-args[0].N), true
		case "~":
			return NewInt(^args[0].N), true
		case "!":
			return boolInt(args[0].N == 0), true
		}
	}
	return nil, false
}

func boolInt(b bool) *Value {
	if b {
		return NewInt(1)
	}
	return NewInt(0)
}

// String renders the value in Table-5 notation. The rendering is computed
// once and cached, so a deep expression costs O(1) after its first render.
func (v *Value) String() string {
	if v == nil {
		return "S#unknown"
	}
	if v.s == "" {
		v.s = v.render()
	}
	return v.s
}

func (v *Value) render() string {
	switch v.Kind {
	case Int:
		return "(I#" + strconv.FormatInt(v.N, 10) + ")"
	case Sym:
		return "(S#" + v.Name + ")"
	case Temp:
		return "(V#" + v.Name + ")"
	case Str:
		return "(I#" + strconv.Quote(v.Name) + ")"
	case Expr:
		if isInfix(v.Op) && len(v.Args) == 2 {
			return "(" + v.Args[0].String() + " " + v.Op + " " + v.Args[1].String() + ")"
		}
		if isInfix(v.Op) && len(v.Args) == 1 {
			return "(" + v.Op + v.Args[0].String() + ")"
		}
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = a.String()
		}
		return "(E#" + v.Op + "(" + strings.Join(parts, ", ") + "))"
	}
	return "?"
}

func isInfix(op string) bool {
	switch op {
	case "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
		"==", "!=", "<", "<=", ">", ">=", "&&", "||", "!", "~",
		".", "->", "[]":
		return true
	}
	return false
}

// Pure reports whether op at the given arity is one of the pure operators
// of the symbolic domain: an application whose value is determined by its
// rendered operands. Call results, memory reads (deref, member access,
// indexing) and address-taking are not pure — two occurrences that render
// identically may hold different values at different program points.
func Pure(op string, arity int) bool {
	switch arity {
	case 1:
		switch op {
		case "+", "-", "~", "!":
			return true
		}
	case 2:
		switch op {
		case "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
			"==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return true
		}
	case 3:
		return op == "?:"
	}
	return false
}

// Stable reports whether v denotes a value that is fixed along one
// execution path: a term built only from concrete integers, free symbols
// (which are bound once and never mutate — reassignment rebinds the
// environment to a new term instead), and pure operators. Temporaries (V#),
// strings, call results and memory reads are not stable: constraint layers
// must never accumulate facts about them, because two occurrences with the
// same rendering may denote different runtime values.
func (v *Value) Stable() bool {
	if v == nil {
		return false
	}
	switch v.Kind {
	case Int, Sym:
		return true
	case Expr:
		if !Pure(v.Op, len(v.Args)) {
			return false
		}
		for _, a := range v.Args {
			if !a.Stable() {
				return false
			}
		}
		return true
	}
	return false
}

// Equal reports structural equality.
func Equal(a, b *Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.N != b.N || a.Name != b.Name || a.Op != b.Op ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// ConcreteInt reports the value's integer if it is concrete.
func (v *Value) ConcreteInt() (int64, bool) {
	if v != nil && v.Kind == Int {
		return v.N, true
	}
	return 0, false
}

// Symbols collects the free symbol names appearing in v, sorted.
func (v *Value) Symbols() []string {
	set := map[string]bool{}
	var rec func(*Value)
	rec = func(x *Value) {
		if x == nil {
			return
		}
		if x.Kind == Sym {
			set[x.Name] = true
		}
		for _, a := range x.Args {
			rec(a)
		}
	}
	rec(v)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Env is a symbolic environment: variable (or field path) → value, plus the
// disequalities learned from refuted branches (x != K).
//
// Every change is logged on an undo trail, so a depth-first walk can fork
// without copying: Mark before exploring a branch, Undo back to the mark
// after it. Disequality sets are copy-on-write, so the set a trail entry
// saves is never mutated later.
type Env struct {
	m     map[string]*Value
	ne    map[string]map[int64]bool
	trail []binding
}

// binding is one trail entry: everything name was bound to before a change.
type binding struct {
	name  string
	v     *Value
	bound bool
	ne    map[int64]bool
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{m: map[string]*Value{}} }

// Mark returns a point on the undo trail for a later Undo.
func (e *Env) Mark() int { return len(e.trail) }

// Undo reverts every Set, Delete and Exclude made since mark, restoring the
// environment exactly as it was when Mark returned it.
func (e *Env) Undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		b := e.trail[i]
		if b.bound {
			e.m[b.name] = b.v
		} else {
			delete(e.m, b.name)
		}
		if b.ne != nil {
			e.ne[b.name] = b.ne
		} else if e.ne != nil {
			delete(e.ne, b.name)
		}
		e.trail[i] = binding{}
	}
	e.trail = e.trail[:mark]
}

// log saves name's current binding and disequality set on the trail.
func (e *Env) log(name string) {
	v, bound := e.m[name]
	e.trail = append(e.trail, binding{name: name, v: v, bound: bound, ne: e.ne[name]})
}

// Get returns the binding for name, or nil.
func (e *Env) Get(name string) *Value { return e.m[name] }

// Set binds name to v; any disequalities for name are superseded.
func (e *Env) Set(name string, v *Value) {
	e.log(name)
	e.m[name] = v
	if e.ne != nil {
		delete(e.ne, name)
	}
}

// Delete removes a binding.
func (e *Env) Delete(name string) {
	e.log(name)
	delete(e.m, name)
	if e.ne != nil {
		delete(e.ne, name)
	}
}

// DeleteFieldsOf removes every field-path binding rooted at root
// ("root->f", "root.f.g"): writing the whole variable invalidates them.
func (e *Env) DeleteFieldsOf(root string) {
	for n := range e.m {
		if len(n) > len(root) && n[:len(root)] == root &&
			(n[len(root)] == '.' || strings.HasPrefix(n[len(root):], "->")) {
			e.Delete(n)
		}
	}
}

// Exclude records that name is known not to equal val (learned from the
// refuted edge of an equality branch).
func (e *Env) Exclude(name string, val int64) {
	old := e.ne[name]
	if old[val] {
		return
	}
	e.log(name)
	set := make(map[int64]bool, len(old)+1)
	for k := range old {
		set[k] = true
	}
	set[val] = true
	if e.ne == nil {
		e.ne = map[string]map[int64]bool{}
	}
	e.ne[name] = set
}

// Excluded reports whether name is known to differ from val.
func (e *Env) Excluded(name string, val int64) bool {
	return e.ne[name][val]
}

// Names returns the bound names, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.m))
	for k := range e.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of bindings.
func (e *Env) Len() int { return len(e.m) }
