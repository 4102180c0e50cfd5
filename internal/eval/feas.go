package eval

// Feasibility-pruning experiment: run the seeded infeasible-path corpus
// (corpus.FeasCases) under each precision tier and measure what the
// constraint layer buys — paths discarded before checking, and false
// positives silenced — against the fast tier's structural walk.

import (
	"fmt"
	"strings"
	"time"

	"pallas/internal/checkers"
	"pallas/internal/corpus"
	"pallas/internal/cparse"
	"pallas/internal/feas"
	"pallas/internal/paths"
	"pallas/internal/spec"
)

// FeasTierResult summarizes one precision tier over the feasibility corpus.
type FeasTierResult struct {
	// Tier names the precision tier ("fast", "balanced", "strict").
	Tier string
	// PathsChecked counts the paths that survived extraction and reached
	// the checkers, across all cases.
	PathsChecked int
	// Pruned counts path continuations the feasibility layer discarded.
	Pruned int
	// Contradictions counts the contradictory branch-condition
	// accumulations detected during the walks.
	Contradictions int64
	// Warnings counts reported warnings across all cases.
	Warnings int
	// FalsePositives lists the case IDs whose seeded false positive fired
	// under this tier (the fast tier fires every one by construction).
	FalsePositives []string
	// Elapsed is the wall time of this tier's pass over the corpus: parse,
	// spec, extraction and checking of every case. It varies run to run, so
	// Render leaves it out.
	Elapsed time.Duration
}

// FeasResult is the measured pruning experiment.
type FeasResult struct {
	// Cases counts the feasibility corpus cases analyzed per tier.
	Cases int
	// Tiers holds one row per precision tier, fast first.
	Tiers []FeasTierResult
}

// RunFeas analyzes every feasibility case under every precision tier.
func RunFeas() (*FeasResult, error) {
	cases := corpus.FeasCases()
	res := &FeasResult{Cases: len(cases)}
	for _, tier := range []feas.Tier{feas.Fast, feas.Balanced, feas.Strict} {
		row := FeasTierResult{Tier: tier.String()}
		start := time.Now()
		for _, c := range cases {
			tu, err := cparse.Parse(c.ID, c.Source)
			if err != nil {
				return nil, fmt.Errorf("%s: parse: %w", c.ID, err)
			}
			sp, err := spec.Parse(c.Spec)
			if err != nil {
				return nil, fmt.Errorf("%s: spec: %w", c.ID, err)
			}
			pcfg := paths.DefaultConfig()
			pcfg.Precision = tier
			ctx, err := checkers.NewContext(tu, sp, pcfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.ID, err)
			}
			rep := checkers.Run(ctx)
			for _, fp := range ctx.FuncPaths {
				row.PathsChecked += len(fp.Paths)
			}
			fstats := ctx.Extractor.FeasStats()
			row.Pruned += rep.PathsPruned
			row.Contradictions += fstats.Contradictions
			row.Warnings += len(rep.Warnings)
			for _, w := range rep.Warnings {
				if w.Finding == c.Finding {
					row.FalsePositives = append(row.FalsePositives, c.ID)
					break
				}
			}
		}
		row.Elapsed = time.Since(start)
		res.Tiers = append(res.Tiers, row)
	}
	return res, nil
}

// Render formats the experiment as a fixed-width table.
func (r *FeasResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Feasibility pruning — %d seeded infeasible-path case(s) per tier (§5.3 FP source)\n", r.Cases)
	sb.WriteString("tier      paths-checked  pruned  contradictions  warnings  seeded-FPs-fired\n")
	sb.WriteString("--------  -------------  ------  --------------  --------  ----------------\n")
	for _, row := range r.Tiers {
		fired := "-"
		if len(row.FalsePositives) > 0 {
			fired = strings.Join(row.FalsePositives, ",")
		}
		fmt.Fprintf(&sb, "%-8s  %13d  %6d  %14d  %8d  %s\n",
			row.Tier, row.PathsChecked, row.Pruned, row.Contradictions, row.Warnings, fired)
	}
	return sb.String()
}
