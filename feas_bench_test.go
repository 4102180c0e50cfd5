package pallas_test

// TestFeasBenchArtifact and BENCH_feas.json: what the precision tiers buy on
// the seeded infeasible-path corpus. One row per tier — paths that reached
// the checkers, paths pruned as infeasible, contradictions proven, warnings
// reported, and which seeded false positives fired — plus the wall-clock of
// each tier's own pass. The rows double as the CI contract: balanced must
// prune at least one seeded FP (with a nonzero pruned counter) and must
// check strictly fewer paths than fast.

import (
	"encoding/json"
	"os"
	"testing"

	"pallas/internal/eval"
)

// feasBench is the BENCH_feas.json schema.
type feasBench struct {
	Cases int             `json:"cases"`
	Tiers []feasBenchTier `json:"tiers"`
}

type feasBenchTier struct {
	Tier           string   `json:"tier"`
	PathsChecked   int      `json:"paths_checked"`
	Pruned         int      `json:"paths_pruned"`
	Contradictions int64    `json:"contradictions"`
	Warnings       int      `json:"warnings"`
	FalsePositives []string `json:"seeded_fps_fired"`
	ElapsedMS      float64  `json:"elapsed_ms"`
}

func TestFeasBenchArtifact(t *testing.T) {
	out := os.Getenv("PALLAS_BENCH_OUT")
	if testing.Short() && out == "" {
		t.Skip("short mode")
	}
	res, err := eval.RunFeas()
	if err != nil {
		t.Fatal(err)
	}

	bench := feasBench{Cases: res.Cases}
	var fast, balanced *feasBenchTier
	for _, row := range res.Tiers {
		bench.Tiers = append(bench.Tiers, feasBenchTier{
			Tier:           row.Tier,
			PathsChecked:   row.PathsChecked,
			Pruned:         row.Pruned,
			Contradictions: row.Contradictions,
			Warnings:       row.Warnings,
			FalsePositives: row.FalsePositives,
			ElapsedMS:      float64(row.Elapsed.Microseconds()) / 1000,
		})
		switch row.Tier {
		case "fast":
			fast = &bench.Tiers[len(bench.Tiers)-1]
		case "balanced":
			balanced = &bench.Tiers[len(bench.Tiers)-1]
		}
	}
	if fast == nil || balanced == nil {
		t.Fatal("missing fast or balanced tier row")
	}
	// The CI contract: pruning is real and visible.
	if balanced.Pruned < 1 || balanced.Contradictions < 1 {
		t.Errorf("balanced tier pruned %d path(s) with %d contradiction(s), want >= 1 each",
			balanced.Pruned, balanced.Contradictions)
	}
	if balanced.PathsChecked >= fast.PathsChecked {
		t.Errorf("balanced checked %d path(s), fast %d — pruning must check fewer",
			balanced.PathsChecked, fast.PathsChecked)
	}
	if len(balanced.FalsePositives) >= len(fast.FalsePositives) {
		t.Errorf("balanced fired %d seeded FP(s), fast %d — pruning must silence at least one",
			len(balanced.FalsePositives), len(fast.FalsePositives))
	}
	t.Logf("feas bench: %d cases; fast %d paths/%d warnings, balanced %d paths/%d warnings (%d pruned)",
		bench.Cases, fast.PathsChecked, fast.Warnings,
		balanced.PathsChecked, balanced.Warnings, balanced.Pruned)
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
