package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RenderSummary writes the human end-of-run block from a registry snapshot
// — the single replacement for the per-layer stderr lines the runner used
// to hand-format. Lines appear only when their counters did: a run with no
// campaigns prints no outcome line, one with checkpointing disabled prints
// no checkpointing line. spans, when provided, adds the slowest cells.
func RenderSummary(w io.Writer, s Snapshot, wall time.Duration, spans []Span) {
	c := func(name string) int64 { return s.Counters[name] }

	fmt.Fprintf(w,
		"suite: %d cells, %d injections, %v wall (%v summed cell time); "+
			"builds: %d unique, %d cache hits; goldens: %d unique, %d cache hits\n",
		c(MCells), c(MInjections), wall.Round(time.Millisecond),
		(time.Duration(c(MCellWallUS)) * time.Microsecond).Round(time.Millisecond),
		c(MBuildMisses), c(MBuildHits), c(MGoldenMisses), c(MGoldenHits))

	if n := c(MCkptCampaigns); n > 0 {
		fmt.Fprintf(w,
			"checkpointing: %d campaigns, %d snapshots (%d KiB), "+
				"%d restores (%d from forks), %d cold starts, %d insts skipped, %d converged\n",
			n, c(MCkptSnapshots), c(MCkptBytes)>>10,
			c(MCkptRestores), c(MCkptForkResumes), c(MCkptColdStarts), c(MCkptSkippedInsts), c(MCkptConverged))
	}

	if n := c(MPrunedCampaigns); n > 0 {
		fmt.Fprintf(w,
			"pruning: %d campaigns, %d plans answered statically "+
				"(%d dead, %d masked, %d deduped)\n",
			n, c(MPrunedPlans), c(MPrunedDead), c(MPrunedMasked), c(MPrunedDedup))
	}

	if n := c(MComposedCampaigns); n > 0 {
		fmt.Fprintf(w,
			"compose: %d campaigns, %d sections; %d plans boundary-classified, %d fell back end-to-end\n",
			n, c(MComposedSections), c(MComposedPlans), c(MComposedFallbacks))
		if hits, misses := c(MComposeSectionHits), c(MComposeSectionMisses); hits+misses > 0 {
			fmt.Fprintf(w,
				"compose cache: %d section tables reused, %d measured fresh, %d plans served without execution\n",
				hits, misses, c(MComposePlansServed))
		}
	}

	if n := c(MWidthFallbacks); n > 0 {
		fmt.Fprintf(w, "site widths: %d sites fell back to full-width faults (no recorded width)\n", n)
	}

	if plans := c(MPlans); plans > 0 {
		var parts []string
		for _, o := range []string{"benign", "sdc", "detected", "crash", "hang"} {
			if v := c(MOutcomePrefix + o); v > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", v, o))
			}
		}
		fmt.Fprintf(w, "outcomes: %d plans across %d campaigns: %s\n",
			plans, c(MCampaigns), strings.Join(parts, ", "))
	}

	if n := c(MBlocksEntered); n > 0 {
		fmt.Fprintf(w, "dispatch: %d blocks entered\n", n)
	}

	if cells := slowestCells(spans, 3); len(cells) > 0 {
		fmt.Fprintf(w, "slowest cells: %s\n", strings.Join(cells, ", "))
	}
}

// slowestCells returns the top-n "cell" spans by duration as "name dur".
func slowestCells(spans []Span, n int) []string {
	var cells []Span
	for _, s := range spans {
		if s.Name == "cell" {
			cells = append(cells, s)
		}
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Dur > cells[j].Dur })
	if len(cells) > n {
		cells = cells[:n]
	}
	out := make([]string, len(cells))
	for i, s := range cells {
		out[i] = fmt.Sprintf("%s %v", s.Cell, s.Dur.Round(time.Millisecond))
	}
	return out
}
