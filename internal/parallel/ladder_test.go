package parallel

import (
	"errors"
	"testing"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// synthLadder is a nontrivial vector trial: rung r succeeds with a
// probability that falls with r, and the work per trial varies.
func synthLadder(t int, stream *rng.PCG, _ any, stopped []bool, out []stats.Outcome) error {
	spin := stream.Intn(100)
	acc := uint64(0)
	for i := 0; i < spin; i++ {
		acc ^= stream.Uint64()
	}
	for r := range out {
		// Draw regardless of stopped[r]: rung outcomes must not depend on
		// which rungs were skipped, so the stream use is rung-independent.
		u := stream.Float64()
		if stopped[r] {
			continue
		}
		if u < 1.0/float64(r+1) {
			out[r] = stats.Success
		} else {
			out[r] = stats.Failure
		}
	}
	return nil
}

// TestParallelDeterminismLadder pins RunLadder's contract (the name keeps
// it inside CI's -race determinism sweep): per-rung committed counts and
// stopping points must be bit-identical for 1, 4 and 16 workers, with and
// without per-rung early stopping.
func TestParallelDeterminismLadder(t *testing.T) {
	const k = 6
	t.Run("full", func(t *testing.T) {
		var ref LadderReport
		for i, workers := range []int{1, 4, 16} {
			rep, err := RunLadder(400, k, 42, Options{Workers: workers}, synthLadder)
			if err != nil {
				t.Fatal(err)
			}
			for r, rung := range rep.Rungs {
				if rung.Trials != 400 {
					t.Fatalf("workers=%d rung=%d: ran %d/400 trials", workers, r, rung.Trials)
				}
			}
			if i == 0 {
				ref = rep
				continue
			}
			for r := range rep.Rungs {
				if rep.Rungs[r].Successes != ref.Rungs[r].Successes {
					t.Fatalf("workers=%d rung=%d: %d successes, want %d",
						workers, r, rep.Rungs[r].Successes, ref.Rungs[r].Successes)
				}
			}
		}
	})

	t.Run("per-rung-early-stop", func(t *testing.T) {
		var ref LadderReport
		for i, workers := range []int{1, 4, 16} {
			rep, err := RunLadder(200000, k, 42, Options{Workers: workers, TargetCI: 0.1}, synthLadder)
			if err != nil {
				t.Fatal(err)
			}
			stopped := 0
			for _, rung := range rep.Rungs {
				if rung.EarlyStopped {
					stopped++
				}
			}
			if stopped == 0 {
				t.Fatalf("workers=%d: no rung stopped early", workers)
			}
			if i == 0 {
				ref = rep
				continue
			}
			for r := range rep.Rungs {
				if rep.Rungs[r] != ref.Rungs[r] {
					t.Fatalf("workers=%d rung=%d: %+v, want %+v", workers, r, rep.Rungs[r], ref.Rungs[r])
				}
			}
		}
	})
}

// TestLadderRungsStopIndependently checks that an easy rung (always
// failing: zero-width interval once the minimum trials are in) stops
// long before a hard 50/50 rung, and that committed counts differ
// accordingly.
func TestLadderRungsStopIndependently(t *testing.T) {
	rep, err := RunLadder(100000, 2, 7, Options{Workers: 8, TargetCI: 0.05},
		func(t int, stream *rng.PCG, _ any, stopped []bool, out []stats.Outcome) error {
			u := stream.Bernoulli(0.5)
			if !stopped[0] {
				out[0] = stats.Failure
			}
			if !stopped[1] {
				if u {
					out[1] = stats.Success
				} else {
					out[1] = stats.Failure
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rungs[0].EarlyStopped || !rep.Rungs[1].EarlyStopped {
		t.Fatalf("expected both rungs to stop early: %+v", rep.Rungs)
	}
	if rep.Rungs[0].Trials >= rep.Rungs[1].Trials {
		t.Fatalf("degenerate rung (%d trials) should stop before the 50/50 rung (%d trials)",
			rep.Rungs[0].Trials, rep.Rungs[1].Trials)
	}
}

// TestLadderSkipHintReachesTrials checks that once a rung stops while
// others still run, later trials actually observe stopped[r] == true (the
// cost-skipping hint).
func TestLadderSkipHintReachesTrials(t *testing.T) {
	sawSkip := false
	_, err := RunLadder(50000, 2, 3, Options{Workers: 1, TargetCI: 0.02, ShardSize: 8},
		func(t int, stream *rng.PCG, _ any, stopped []bool, out []stats.Outcome) error {
			u := stream.Bernoulli(0.5)
			if stopped[0] && !stopped[1] {
				sawSkip = true // workers=1: no race on this flag
			}
			out[0] = stats.Failure // degenerate: stops as soon as the minimum trials are in
			if u {
				out[1] = stats.Success
			} else {
				out[1] = stats.Failure
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSkip {
		t.Error("stopped hint never reached a trial after the rung committed")
	}
}

func TestLadderPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunLadder(1000, 3, 1, Options{Workers: 4},
		func(t int, stream *rng.PCG, _ any, stopped []bool, out []stats.Outcome) error {
			if t == 41 {
				return boom
			}
			for r := range out {
				out[r] = stats.Success
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestLadderRejectsBadShape(t *testing.T) {
	if _, err := RunLadder(0, 3, 1, Options{}, nil); err == nil {
		t.Error("0 trials accepted")
	}
	if _, err := RunLadder(10, 0, 1, Options{}, nil); err == nil {
		t.Error("0 rungs accepted")
	}
}
