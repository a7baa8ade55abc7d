package crashfuzz

// Shrinking: reduce a failing schedule to a minimal repro.
//
// The order is deliberate — drop whole crash-model features first
// (fault injection, the mid-commit hook, then the relaxed persistence
// model), because a repro without them implicates a much smaller slice of the system; only then bisect
// the crash point (Extra) and the warm fill (Warm), which shortens the
// trace a human must replay.

// ShrinkBudget caps the number of trial re-executions one Shrink call
// may spend. Each candidate simplification costs one trial.
const ShrinkBudget = 64

// Shrink minimizes a failing schedule. It returns the smallest schedule
// (per the feature-then-bisect order above) that still fails, together
// with that schedule's violation. If s does not actually fail (e.g. a
// flaky report), Shrink returns s unchanged and a nil violation.
func (r *Runner) Shrink(s Schedule) (Schedule, *Violation) {
	budget := ShrinkBudget
	try := func(cand Schedule) *Violation {
		if budget <= 0 {
			return nil
		}
		budget--
		return r.RunTrial(cand)
	}
	best := try(s)
	if best == nil {
		return s, nil
	}

	// 1. Feature dropping: each feature is removed independently and
	// kept out only if the failure survives.
	if s.Faults != 0 {
		cand := s
		cand.Faults = 0
		if v := try(cand); v != nil {
			s, best = cand, v
		}
	}
	if s.MidCommit >= 0 {
		cand := s
		cand.MidCommit = -1
		if v := try(cand); v != nil {
			s, best = cand, v
		}
	}
	if s.Model != 0 {
		cand := s
		cand.Model = 0 // CrashFullADR
		if v := try(cand); v != nil {
			s, best = cand, v
		}
	}

	// 2. Bisect the crash point: greedy halving, then linear backoff.
	for s.Extra > 1 && budget > 0 {
		cand := s
		cand.Extra = s.Extra / 2
		if v := try(cand); v != nil {
			s, best = cand, v
			continue
		}
		cand.Extra = s.Extra - 1
		if v := try(cand); v != nil {
			s, best = cand, v
			continue
		}
		break
	}

	// 3. Shrink the warm fill the same way.
	for s.Warm > 0 && budget > 0 {
		cand := s
		cand.Warm = s.Warm / 2
		if v := try(cand); v != nil {
			s, best = cand, v
			continue
		}
		cand.Warm = 0
		if v := try(cand); v != nil {
			s, best = cand, v
		}
		break
	}
	return s, best
}
