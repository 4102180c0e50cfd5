package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "unit", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "a", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{Name: "b", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "c", ID: 5, Parent: 4, Start: 95, End: 100},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"unit": 50, "a": 50, "b": 25, "c": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer()
	var child int
	root := tr.do("unit", 7, 0, func(id int) {
		child = tr.do("cpp", 7, id, func(int) { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[child-1].Parent != root || tr.spans[root-1].Trace != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if s := tr.spans[root-1]; s.End < tr.spans[child-1].End || s.Start > tr.spans[child-1].Start {
		t.Errorf("root %+v does not enclose child %+v", s, tr.spans[child-1])
	}
	var off *tracer
	ran := false
	off.do("unit", 1, 0, func(int) { ran = true })
	if !ran {
		t.Error("nil tracer did not run the call")
	}
}

// TestStagedMatchesFacade is the identity check the traced run makes, on a
// few units of every workload.
func TestStagedMatchesFacade(t *testing.T) {
	units, err := subsystem()
	if err != nil {
		t.Fatal(err)
	}
	for _, du := range deepPathsUnits(3)[:2] {
		units = append(units, du.unit)
	}
	r := &tracedRun{c: config{workload: "test", nproc: 2, dur: time.Millisecond}, res: newResult(), t: newTracer()}
	if err := r.split(units, 2); err != nil {
		t.Fatal(err)
	}
	if r.res.Failed != 0 || r.res.Attempted != int64(len(units)) {
		t.Errorf("identity check: %d of %d failed", r.res.Failed, r.res.Attempted)
	}
}
