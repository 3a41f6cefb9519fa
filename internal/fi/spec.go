package fi

import "fmt"

// Check validates the campaign's combination of run modes before any work
// happens. It is the one place run-mode combinations are checked: the
// runners call it first, and the command-line tools call it before they
// open a journal, so an impossible combination never truncates one.
func (c Campaign) Check() error { return c.check(false) }

// CheckIR is Check for an IR-level campaign, which additionally supports
// neither pruning, compose nor multi-bit faults.
func (c Campaign) CheckIR() error { return c.check(true) }

func (c Campaign) check(irLevel bool) error {
	if err := c.Shard.check(); err != nil {
		return err
	}
	if irLevel && c.Prune != PruneOff {
		// Register liveness, flag consumers and masking idioms have no IR
		// equivalent.
		return fmt.Errorf("fi: prune mode %v is not supported for IR campaigns (the analysis is assembly-level)", c.Prune)
	}
	if irLevel && c.BitsPerFault > 1 {
		// The IR injector flips exactly one bit of a 64-bit value.
		return fmt.Errorf("fi: %d bits per fault is not supported for IR campaigns (the IR injector flips a single bit)", c.BitsPerFault)
	}
	if irLevel && c.Compose != ComposeOff {
		// Boundary descriptors are register/flag/page diffs of machine
		// snapshots; the IR interpreter has neither.
		return fmt.Errorf("fi: compose mode %v is not supported for IR campaigns (sections are cut at assembly checkpoint boundaries)", c.Compose)
	}
	if c.Compose != ComposeOff && c.NoCheckpoint {
		return fmt.Errorf("fi: compose mode %v requires checkpointing (sections are cut at checkpoint boundaries)", c.Compose)
	}
	// A plan stage reshapes the campaign's plan sequence: pruning re-indexes
	// it densely, compose stratifies it per section, and a shard takes a
	// round-robin residue of it. Each is defined over the uniform draw, not
	// over another stage's output, so a campaign has at most one.
	var stages []string
	if c.Prune != PruneOff {
		stages = append(stages, fmt.Sprintf("prune mode %v", c.Prune))
	}
	if c.Compose != ComposeOff {
		stages = append(stages, fmt.Sprintf("compose mode %v", c.Compose))
	}
	if c.Shard.enabled() {
		stages = append(stages, fmt.Sprintf("shard %d/%d", c.Shard.Index, c.Shard.Count))
	}
	if len(stages) > 1 {
		return fmt.Errorf("fi: %s is incompatible with %s (a campaign takes at most one plan stage: prune, compose or shard)", stages[0], stages[1])
	}
	return nil
}

// Meta derives the campaign's plan-space fingerprint: every Campaign field
// that decides which plans run or how they are classified. Callers stamp
// the target fields (tool, benchmarks, technique, level, ...) on top.
// Workers, sinks, caches, cancellation and the journal itself are absent:
// they cannot change a result. So is the checkpoint spacing K: every
// campaign outside this package's tests derives it from Samples, the mode
// and the golden run (goldenCheckpoints).
func (c Campaign) Meta() JournalMeta {
	m := JournalMeta{
		Seed: c.Seed, Samples: c.Samples, Bits: c.BitsPerFault,
		MaxSteps: c.MaxSteps, ShardIndex: c.Shard.Index, ShardCount: c.Shard.Count,
	}
	if c.Prune != PruneOff {
		m.Prune = c.Prune.String()
	}
	if c.Compose != ComposeOff {
		m.Compose = c.Compose.String()
	}
	return m
}
