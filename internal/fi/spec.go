package fi

import "fmt"

// Check validates the campaign's combination of run modes before any work
// happens. It is the one place the mode matrix lives: the runners call it
// first, and the command-line tools call it before they open a journal, so
// an impossible combination never truncates one.
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
	if c.Prune != PruneOff && c.CIWidth > 0 {
		return fmt.Errorf("fi: prune mode %v is incompatible with CI-width early stopping (pruned campaigns have no uniform plan prefix)", c.Prune)
	}
	if c.Compose != ComposeOff {
		switch {
		case c.Prune != PruneOff:
			return fmt.Errorf("fi: compose mode %v is incompatible with prune mode %v (pruned campaigns have no per-section plan strata)", c.Compose, c.Prune)
		case c.CIWidth > 0:
			return fmt.Errorf("fi: compose mode %v is incompatible with CI-width early stopping (per-section budgets are fixed up front)", c.Compose)
		case c.NoCheckpoint:
			return fmt.Errorf("fi: compose mode %v requires checkpointing (sections are cut at checkpoint boundaries)", c.Compose)
		}
	}
	if c.Shard.enabled() {
		// A round-robin residue is uniform over the plan sequence, which
		// none of these modes keeps: pruning re-indexes it densely, the
		// early-stop prefix spans every shard, and compose stratifies it
		// per section (and would split the section cache across workers).
		switch {
		case c.Prune != PruneOff:
			return fmt.Errorf("fi: shard %d/%d: sharding is incompatible with prune mode %v (plan indices would be re-indexed twice)", c.Shard.Index, c.Shard.Count, c.Prune)
		case c.CIWidth > 0:
			return fmt.Errorf("fi: shard %d/%d: sharding is incompatible with CI-width early stopping (no shard observes the global plan prefix)", c.Shard.Index, c.Shard.Count)
		case c.Compose != ComposeOff:
			return fmt.Errorf("fi: shard %d/%d: sharding is incompatible with compose mode %v (a residue of per-section strata is no per-section budget)", c.Shard.Index, c.Shard.Count, c.Compose)
		}
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
		Seed: c.Seed, Samples: c.Samples, Bits: c.BitsPerFault, CIWidth: c.CIWidth,
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
