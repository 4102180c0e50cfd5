package main

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"

	"pallas/internal/corpus"
	"pallas/internal/cparse"
)

// unit is one analysis input together with the verdict an independent
// source declares for it.
type unit struct {
	name, src, spec string
	want            expect
	// funcs holds the definition head of every function with a body that
	// edit can locate; an edit always lands in one of them.
	funcs []string
}

// expect is an oracle: the exact multiset of findings a unit must report.
// Keys are "finding", or "func/finding" when byFunc is set (then the
// multiset is compared as a set, since a checker may report one seeded
// violation on several paths of the same function).
type expect struct {
	byFunc bool
	counts map[string]int
}

// subsystemUnits are the seven subsystem-scale units with the warnings the
// corpus declares for each (18 in all). The counts restate the corpus
// documentation, not anything the analyzer computes.
var subsystemUnits = []struct {
	file string
	get  func() (string, string)
	want map[string]int
}{
	{"mm/page_alloc.c", corpus.BigFile, map[string]int{"state-overwrite": 1, "ds-stale": 1}},
	{"net/ipv4/tcp_input.c", corpus.BigFileNet, map[string]int{"cond-incomplete": 1, "out-mismatch": 1}},
	{"fs/ubifs/file.c", corpus.BigFileFS, map[string]int{"out-unchecked": 1, "fault-missing": 1, "out-mismatch": 1}},
	{"drivers/scsi/mpt3sas_base.c", corpus.BigFileDev, map[string]int{"fault-missing": 2, "ds-layout": 2}},
	{"chromium/task_queue_impl.cc", corpus.BigFileWB, map[string]int{"out-mismatch": 1, "ds-layout": 2}},
	{"ovs/dpif-netdev.c", corpus.BigFileSDN, map[string]int{"cond-order": 1, "cond-incomplete": 1}},
	{"android/binder.c", corpus.BigFileMob, map[string]int{"state-overwrite": 1, "state-correlated": 1}},
}

// subsystem returns the seven subsystem units in corpus order.
func subsystem() ([]unit, error) {
	out := make([]unit, 0, len(subsystemUnits))
	for _, s := range subsystemUnits {
		src, sp := s.get()
		u := unit{name: s.file, src: src, spec: sp, want: expect{counts: s.want}}
		if err := u.findFuncs(); err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// corpusScanUnits builds the corpus-scan input: every Table-1 Bug/Trap case,
// the Clean variant of every Bug case and the subsystem units, shuffled by
// seed. Names are case IDs so every unit is distinct in reports.
func corpusScanUnits(seed uint64) ([]unit, error) {
	reg := corpus.Generate()
	var out []unit
	for _, c := range reg.Cases {
		out = append(out, unit{name: c.ID + ".c", src: c.Source, spec: c.Spec,
			want: expect{counts: map[string]int{c.Finding: 1}}})
	}
	for _, c := range corpus.CleanCases() {
		out = append(out, unit{name: c.ID + ".c", src: c.Source, spec: c.Spec,
			want: expect{counts: map[string]int{}}})
	}
	sub, err := subsystem()
	if err != nil {
		return nil, err
	}
	out = append(out, sub...)
	for i := range out {
		if out[i].funcs == nil {
			if err := out[i].findFuncs(); err != nil {
				return nil, err
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 1))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// findFuncs records the unit's editable functions: those with a body whose
// definition head defHead can locate in the source text.
func (u *unit) findFuncs() error {
	tu, err := cparse.Parse(u.name, u.src)
	if err != nil {
		return fmt.Errorf("%s: %w", u.name, err)
	}
	u.funcs = []string{}
	for _, f := range tu.Funcs() {
		if head := defHead(u.src, f.Name); f.Body != nil && head != "" {
			u.funcs = append(u.funcs, head)
		}
	}
	if len(u.funcs) == 0 {
		return fmt.Errorf("%s: no editable function", u.name)
	}
	return nil
}

// defHead returns the head of fn's definition in src, from the start of its
// line up to its opening brace, or "" when it cannot be located by plain
// search. The pattern admits only a declaration's words, spaces and stars
// before the name, so calls inside conditions (`if (fn(x)) {`) never match.
// The head must also be the first occurrence of its text, so edit can find
// it with strings.Index. Edits only insert text after a brace, so they
// never move that first occurrence.
func defHead(src, fn string) string {
	re := regexp.MustCompile(`(?m)^[A-Za-z_][\w \t\*]*\b` + regexp.QuoteMeta(fn) + `\s*\([^;{}]*\)\s*\{`)
	loc := re.FindStringIndex(src)
	if loc == nil || strings.Index(src, src[loc[0]:loc[1]]) != loc[0] {
		return ""
	}
	return src[loc[0]:loc[1]]
}

// editMarker is the declaration a semantics-neutral edit adds to a body.
const editMarker = " int pallas_bench_edit = "

var markerRE = regexp.MustCompile(`^` + regexp.QuoteMeta(editMarker) + `\d+;`)

// edit returns src with the body of the function whose definition head is
// head starting with an unused local holding k, replacing the local an
// earlier edit put there. It stays on the line of the opening brace, so no
// other function's lines move and only that function's fingerprint changes.
func edit(src, head string, k int) string {
	at := strings.Index(src, head)
	if at < 0 || head == "" {
		panic("edit: no definition head " + head) // defHead admitted only present heads
	}
	at += len(head)
	rest := src[at:]
	if m := markerRE.FindString(rest); m != "" {
		rest = rest[len(m):]
	}
	return src[:at] + editMarker + fmt.Sprint(k) + ";" + rest
}

// Deep-paths generator.

const (
	deepUnits    = 6
	deepFuncs    = 6
	deepBranches = 9
	deepParams   = 2 * deepBranches // every condition reads its own parameters
	maxPaths     = 512              // the facade's default MaxPaths
	minDeepPaths = 320              // keeps every function branch-heavy and seeds alike
)

// branch kinds and the factor each applies to the count of paths through
// the rest of the function.
const (
	brIf       = iota // if (c) { s; }                 2·rest
	brIfElse          // if (c) { s; } else { s; }     2·rest
	brAnd             // if (c && d) { s; }            2·rest (one decision)
	brEarlyRet        // if (c) return -1;             1 + rest
)

// deepUnit is a generated unit plus the (function, finding) pairs seeded in
// it, and the exact path count of every function.
type deepUnit struct {
	unit
	paths map[string]int
}

// deepPathsUnits generates the deep-paths input. About a third of the
// functions get one seeded violation on a feasible path: an immutable
// parameter overwritten (state-overwrite) or a return value outside the
// function's declared set (out-unexpected).
func deepPathsUnits(seed uint64) []deepUnit {
	r := rand.New(rand.NewPCG(seed, 2))
	out := make([]deepUnit, deepUnits)
	for u := range out {
		var src, sp strings.Builder
		du := deepUnit{paths: map[string]int{}}
		du.name = fmt.Sprintf("deep/unit%d.c", u)
		du.want = expect{byFunc: true, counts: map[string]int{}}
		for h := 0; h < 3; h++ {
			fmt.Fprintf(&src, "static int h%d_%d(int x)\n{\n\tif (x > %d)\n\t\treturn x - %d;\n\treturn x + 1;\n}\n\n",
				u, h, 1+r.IntN(9), 1+r.IntN(9))
		}
		params := make([]string, deepParams)
		for i := range params {
			params[i] = fmt.Sprintf("int a%d", i)
		}
		sp.WriteString("immutable")
		for i := 0; i < deepParams; i++ {
			fmt.Fprintf(&sp, " a%d", i)
		}
		sp.WriteString("\n")
		for f := 0; f < deepFuncs; f++ {
			fn := fmt.Sprintf("fp%d_%d", u, f)
			kinds, violation, at, n := drawFunc(r)
			du.paths[fn] = n
			if violation != "" {
				du.want.counts[fn+"/"+violation] = 1
			}
			fmt.Fprintf(&sp, "fastpath %s\nreturns %s {0, -1}\n", fn, fn)
			fmt.Fprintf(&src, "int %s(%s, int *out)\n{\n\tint acc = 0;\n", fn, strings.Join(params, ", "))
			for i, k := range kinds {
				// Conditions read distinct parameters so they stay
				// independent and every combination is feasible.
				p, q := 2*i, 2*i+1
				c, d := r.IntN(16), r.IntN(16)
				body := fmt.Sprintf("acc += h%d_%d(a%d);", u, r.IntN(3), r.IntN(deepParams))
				if i == at {
					if violation == "state-overwrite" {
						body += fmt.Sprintf(" a%d = acc;", r.IntN(deepParams))
					} else {
						body += " return 7;"
					}
				}
				switch k {
				case brIf:
					fmt.Fprintf(&src, "\tif (a%d > %d) {\n\t\t%s\n\t}\n", p, c, body)
				case brIfElse:
					fmt.Fprintf(&src, "\tif (a%d == %d) {\n\t\t%s\n\t} else {\n\t\tacc -= %d;\n\t}\n", p, c, body, d)
				case brAnd:
					fmt.Fprintf(&src, "\tif (a%d != %d && a%d < %d) {\n\t\t%s\n\t}\n", p, c, q, d, body)
				case brEarlyRet:
					fmt.Fprintf(&src, "\tif (a%d < -%d)\n\t\treturn -1;\n", p, c+1)
				}
			}
			src.WriteString("\t*out = acc;\n\treturn 0;\n}\n\n")
		}
		du.src = src.String()
		du.spec = sp.String()
		du.funcs = []string{}
		for f := 0; f < deepFuncs; f++ {
			du.funcs = append(du.funcs, defHead(du.src, fmt.Sprintf("fp%d_%d", u, f)))
		}
		out[u] = du
	}
	return out
}

// drawFunc draws a function's branch kinds and its seeded violation (none
// for about two thirds of functions) until the path count lies in
// [minDeepPaths, maxPaths), so every function is branch-heavy and none
// truncates. The violation sits in the then-arm of a branch that is not an
// early return, which some feasible path always takes; at is that branch,
// or -1.
func drawFunc(r *rand.Rand) (kinds []int, violation string, at, n int) {
	for {
		kinds = make([]int, deepBranches)
		for i := range kinds {
			kinds[i] = r.IntN(4)
		}
		violation, at = "", -1
		switch r.IntN(6) {
		case 0:
			violation = "state-overwrite"
		case 1:
			violation = "out-unexpected"
		}
		if violation != "" {
			for at < 0 || kinds[at] == brEarlyRet {
				at = r.IntN(len(kinds))
			}
		}
		shape := append([]int(nil), kinds...)
		if violation == "out-unexpected" {
			shape[at] = brEarlyRet // its then-arm returns
		}
		if n = pathCount(shape); n >= minDeepPaths && n < maxPaths {
			return kinds, violation, at, n
		}
	}
}

// pathCount is the number of paths through a function built from kinds:
// branch conditions are on independent parameters, so every combination is
// feasible and the counts multiply (an early return adds one path).
func pathCount(kinds []int) int {
	n := 1
	for i := len(kinds) - 1; i >= 0; i-- {
		switch kinds[i] {
		case brIf, brIfElse, brAnd:
			n *= 2
		case brEarlyRet:
			n++
		}
	}
	return n
}

// Edit-serve schedule.

const (
	// serveEditShare is the share of arrivals that are one-function edits.
	// It follows the repository's own re-check benchmark (BENCH_incr):
	// one of eight units edited, the other seven re-sent unchanged. Units
	// are drawn uniformly, as that benchmark re-checks every unit alike.
	serveEditShare = 1.0 / 8
	serveLimitMS   = 20 // latency limit for slo_ratio
)

// request is one scheduled edit-serve arrival.
type request struct {
	due     float64 // seconds after the schedule starts
	unit    int     // index into the project units
	edit    bool    // a one-function edit; otherwise a re-post
	version int     // index into versions: the content this request sends
}

// version is one distinct content of a project unit.
type version struct {
	unit int
	src  string
}

// serveSchedule draws the open-loop arrival schedule: Poisson arrivals at
// rate per second for dur seconds, each picking a unit, and with
// probability editShare editing one function of it (a new constant in its
// marker local). Other arrivals re-post the unit's latest content.
func serveSchedule(seed uint64, units []unit, rate, dur, editShare float64) ([]request, []version) {
	r := rand.New(rand.NewPCG(seed, 3))
	var vs []version
	addVersion := func(u int, src string) int {
		vs = append(vs, version{unit: u, src: src})
		return len(vs) - 1
	}
	cur := make([]int, len(units))
	for i, u := range units {
		cur[i] = addVersion(i, u.src)
	}
	var reqs []request
	for t := r.ExpFloat64() / rate; t < dur; t += r.ExpFloat64() / rate {
		u := r.IntN(len(units))
		q := request{due: t, unit: u}
		if r.Float64() < editShare {
			q.edit = true
			head := units[u].funcs[r.IntN(len(units[u].funcs))]
			cur[u] = addVersion(u, edit(vs[cur[u]].src, head, 1+r.IntN(1<<20)))
		}
		q.version = cur[u]
		reqs = append(reqs, q)
	}
	return reqs, vs
}
