package main

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"pallas"
	"pallas/internal/cparse"
	"pallas/internal/paths"
)

func analyzeJSON(t *testing.T, a *pallas.Analyzer, u unit) []byte {
	t.Helper()
	res, err := a.AnalyzeSource(u.name, u.src, u.spec)
	if err != nil {
		t.Fatalf("%s: %v", u.name, err)
	}
	b, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCorpusScanUnitsDeterministic(t *testing.T) {
	a, err := corpusScanUnits(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := corpusScanUnits(1)
	c, _ := corpusScanUnits(2)
	if len(a) != 224+155+7 {
		t.Fatalf("corpus-scan has %d units, want 386", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different corpus-scan inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same corpus order")
	}
}

func TestDeepPathsUnitsDeterministic(t *testing.T) {
	a, b, c := deepPathsUnits(1), deepPathsUnits(1), deepPathsUnits(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different deep-paths inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same deep-paths inputs")
	}
	seeded := 0
	for _, u := range a {
		seeded += len(u.want.counts)
	}
	if seeded == 0 {
		t.Error("seed 1 seeded no violations")
	}
}

func TestServeScheduleDeterministic(t *testing.T) {
	units, err := subsystem()
	if err != nil {
		t.Fatal(err)
	}
	r1, v1 := serveSchedule(1, units, 100, 3, serveEditShare)
	r2, v2 := serveSchedule(1, units, 100, 3, serveEditShare)
	r3, _ := serveSchedule(2, units, 100, 3, serveEditShare)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(v1, v2) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("different seeds gave the same schedule")
	}
	edits := 0
	for i, q := range r1 {
		if i > 0 && q.due < r1[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if q.edit {
			edits++
		}
	}
	if edits == 0 || edits == len(r1) {
		t.Errorf("%d of %d arrivals are edits", edits, len(r1))
	}
}

// TestNoDeepFunctionReachesMaxPaths extracts every generated function with
// the facade's defaults: none truncates, and each has the path count the
// generator computed.
func TestNoDeepFunctionReachesMaxPaths(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, u := range deepPathsUnits(seed) {
			tu, err := cparse.Parse(u.name, u.src)
			if err != nil {
				t.Fatal(err)
			}
			ex := paths.NewExtractor(tu, paths.Config{MaxPaths: maxPaths, MaxBlockVisits: 2, InlineDepth: 2})
			for fn, want := range u.paths {
				fp, err := ex.Extract(fn)
				if err != nil {
					t.Fatal(err)
				}
				if fp.Truncated || len(fp.Paths) >= maxPaths {
					t.Errorf("seed %d %s: %d paths, truncated=%v", seed, fn, len(fp.Paths), fp.Truncated)
				}
				if len(fp.Paths) != want {
					t.Errorf("seed %d %s: %d paths, generator says %d", seed, fn, len(fp.Paths), want)
				}
			}
		}
	}
}

// TestOraclesAcceptCorrectAnalyzer runs every generated input, unchanged and
// edited, through the analyzer: all must meet their oracle.
func TestOraclesAcceptCorrectAnalyzer(t *testing.T) {
	a := pallas.New(pallas.Config{})
	units, err := corpusScanUnits(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, du := range deepPathsUnits(7) {
		units = append(units, du.unit)
	}
	r := rand.New(rand.NewPCG(7, 7))
	// editedCopy gives every unit one fresh edit in a random function.
	editedCopy := func(us []unit) []unit {
		out := make([]unit, len(us))
		for i, u := range us {
			u.src = edit(u.src, u.funcs[r.IntN(len(u.funcs))], 1+r.IntN(1<<20))
			out[i] = u
		}
		return out
	}
	for _, set := range [][]unit{units, editedCopy(units), editedCopy(editedCopy(units))} {
		for _, u := range set {
			if msg := u.want.check(analyzeJSON(t, a, u)); msg != "" {
				t.Errorf("%s: %s", u.name, msg)
			}
		}
	}
}

func TestOracleRejectsWrongFindings(t *testing.T) {
	e := expect{counts: map[string]int{"state-overwrite": 1}}
	for _, rep := range []string{
		`{"warnings":[]}`,
		`{"warnings":[{"finding":"state-overwrite"},{"finding":"state-overwrite"}]}`,
		`{"warnings":[{"finding":"ds-stale"}]}`,
		`{"warnings":[{"finding":"state-overwrite"}],"degraded":true}`,
	} {
		if e.check([]byte(rep)) == "" {
			t.Errorf("oracle accepted %s", rep)
		}
	}
	if msg := e.check([]byte(`{"warnings":[{"finding":"state-overwrite","func":"f"}]}`)); msg != "" {
		t.Errorf("oracle rejected a matching report: %s", msg)
	}
	if msg := (expect{counts: map[string]int{}}).check([]byte(`{"warnings":null}`)); msg != "" {
		t.Errorf("oracle rejected a clean report: %s", msg)
	}
}

func TestEditIsStableAndReplaces(t *testing.T) {
	src := "int f(int a)\n{\n\treturn a;\n}\nint g(void) { if (f(1)) { return 1; } return f(1); }\n"
	f, g := defHead(src, "f"), defHead(src, "g")
	if f != "int f(int a)\n{" || g != "int g(void) {" {
		t.Fatalf("defHead: f = %q, g = %q", f, g)
	}
	once := edit(src, f, 5)
	if once != "int f(int a)\n{"+editMarker+"5;\n\treturn a;\n}\nint g(void) { if (f(1)) { return 1; } return f(1); }\n" {
		t.Fatalf("edit = %q", once)
	}
	if twice := edit(once, f, 9); twice != edit(src, f, 9) {
		t.Errorf("re-edit did not replace the marker: %q", twice)
	}
	if e := edit(src, g, 3); e != "int f(int a)\n{\n\treturn a;\n}\nint g(void) {"+editMarker+"3; if (f(1)) { return 1; } return f(1); }\n" {
		t.Errorf("edit g = %q", e)
	}
}
