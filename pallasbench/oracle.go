package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// warning is the part of a report warning the oracles read. Decoding the
// report JSON, rather than using the analyzer's types, keeps the oracle
// independent of the code under test.
type warning struct {
	Finding string `json:"finding"`
	Func    string `json:"func"`
}

// check compares a report (as JSON) against the unit's expectation and
// returns a description of the mismatch, or "" when it matches.
func (e expect) check(reportJSON []byte) string {
	var rep struct {
		Warnings []warning `json:"warnings"`
		Degraded bool      `json:"degraded"`
	}
	if err := json.Unmarshal(reportJSON, &rep); err != nil {
		return "undecodable report: " + err.Error()
	}
	if rep.Degraded {
		return "degraded report"
	}
	got := map[string]int{}
	for _, w := range rep.Warnings {
		if e.byFunc {
			got[w.Func+"/"+w.Finding] = 1
		} else {
			got[w.Finding]++
		}
	}
	if !sameCounts(got, e.counts) {
		return fmt.Sprintf("findings %s, want %s", render(got), render(e.counts))
	}
	return ""
}

func sameCounts(a, b map[string]int) bool {
	n := 0
	for k, v := range a {
		if v != b[k] {
			return false
		}
		n++
	}
	for _, v := range b {
		if v != 0 {
			n--
		}
	}
	return n == 0
}

func render(m map[string]int) string {
	var parts []string
	for k, v := range m {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", k, v))
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}
