package churn

import (
	"errors"

	"ftnet/internal/core"
)

// Batched lifetime evaluation: the daemon's batching policy ported into
// the churn layer. Instead of paying a full pipeline evaluation — place,
// extract, verify — after every Gillespie event, a batched trial decides
// each event's up/down status with the placement-only probe
// (core.Graph.Tolerates) and runs the full session evaluation once per
// window of Batch events, where the session's bidirectional add/clear
// absorbs the whole window's mutations in one warm incremental step.
//
// Why a probe instead of bisection: the natural "absorb additions and
// binary-search the death event" scheme leans on embeddability being
// antitone in the fault set (a superset's survival implying every
// prefix's). That premise is FALSE for the paper's conditions: condition
// 2 can reject a fault set and accept a superset, because an added fault
// can merge two boxes that each needed their own band segment in a
// shared slab into one box needing a single segment.
// TestToleratesNotMonotone pins a three/four-fault counterexample, and
// unrepaired Gillespie streams cross such states in practice, so no
// inference from a window-end evaluation to the unevaluated prefixes is
// sound. What IS sound: every unhealthy classification the pipeline can
// make is decided by the placement stages alone — extraction and
// verification fail only on bug-class invariant violations — so the
// probe is the oracle's exact status at a fraction of its cost.
//
// Batched mode therefore runs the per-event oracle's own event loop
// (lifetimeTrial) with only the status source swapped: it draws the
// same events in the same order, accrues availability with the same
// floating-point operands in the same order, latches death at the same
// event with the same standing fault count, and aborts on MaxEvents at
// the same point with the same error: every reported metric is
// bit-identical by construction (the goldens in batch_test.go pin it
// across mixed node+edge streams at d=2 and d=3). Only the cost moves:
// a window of k events pays k probes plus one warm session Eval instead
// of k full evaluations, and the window-boundary Eval doubles as a
// cross-check that the probe and the full pipeline agree on the state.

// evalClass folds a pipeline outcome into up/down, passing bug-class
// errors through.
func evalClass(err error) (bool, error) {
	if err == nil {
		return true, nil
	}
	var ue *core.UnhealthyError
	if errors.As(err, &ue) {
		return false, nil
	}
	return false, err
}

// evalErrOnly drops the Result of a Session.Eval: the batch layer only
// classifies outcomes, it never reads the embedding.
func evalErrOnly(_ *core.Result, err error) error { return err }
