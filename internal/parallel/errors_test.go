package parallel

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// errEngine runs one engine at a worker count with an early-stopping
// target, failing every trial fail reports, and returns its report and
// the trial index just past the point where the run decided to stop.
type errEngine func(workers int, fail func(t int) bool) (rep any, stop int, err error)

var errBoom = errors.New("boom")

var errEngines = []struct {
	name string
	run  errEngine
}{
	{"Run", func(workers int, fail func(int) bool) (any, int, error) {
		rep, err := Run(100000, 42, Options{Workers: workers, TargetCI: 0.08},
			func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
				if fail(t) {
					return stats.Failure, errBoom
				}
				return synthTrial(t, stream, scratch)
			})
		return rep, rep.Shards * DefaultShardSize, err
	}},
	{"RunLadder", func(workers int, fail func(int) bool) (any, int, error) {
		rep, err := RunLadder(100000, 4, 42, Options{Workers: workers, TargetCI: 0.1},
			func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error {
				if fail(t) {
					return errBoom
				}
				return synthLadder(t, stream, scratch, stopped, out)
			})
		stop := 0
		for _, rung := range rep.Rungs {
			stop = max(stop, rung.Shards*DefaultShardSize)
		}
		return rep, stop, err
	}},
	{"RunLifetime", func(workers int, fail func(int) bool) (any, int, error) {
		body := syntheticLifetime(3)
		rep, err := RunLifetime(100000, 3, 77, Options{Workers: workers, TargetCI: 0.1},
			func(t int, stream *rng.PCG, scratch any, out []float64) error {
				if fail(t) {
					return errBoom
				}
				return body(t, stream, scratch, out)
			})
		return rep, rep.Shards * DefaultShardSize, err
	}},
}

// TestParallelDeterminismErrors pins the error and early-stop contract
// of every engine at 1, 4 and 16 workers (the name keeps it inside CI's
// -race determinism sweep): of two failing trials in the committed
// prefix the smaller index is reported, and failures beyond the
// early-stop commit point are discarded, leaving the report equal to the
// failure-free run's.
func TestParallelDeterminismErrors(t *testing.T) {
	for _, eng := range errEngines {
		t.Run(eng.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				ref, stop, err := eng.run(workers, func(int) bool { return false })
				if err != nil {
					t.Fatal(err)
				}
				if stop <= 0 || stop >= 100000 {
					t.Fatalf("workers=%d: reference run did not stop early (stop %d)", workers, stop)
				}

				for _, pair := range [][2]int{{11, 27}, {12, 13}, {3, stop - 1}} {
					_, _, err := eng.run(workers, func(t int) bool { return t == pair[0] || t == pair[1] })
					want := "trial " + strconv.Itoa(pair[0]) + ":"
					if !errors.Is(err, errBoom) || !strings.HasPrefix(err.Error(), want) {
						t.Fatalf("workers=%d failing %v: err = %v, want %q...", workers, pair, err, want)
					}
				}

				rep, _, err := eng.run(workers, func(t int) bool { return t == stop || t == stop+1 || t == stop+5*DefaultShardSize })
				if err != nil {
					t.Fatalf("workers=%d: failure beyond the commit point at trial %d surfaced: %v", workers, stop, err)
				}
				if !reflect.DeepEqual(rep, ref) {
					t.Fatalf("workers=%d: report with discarded failures %+v, want %+v", workers, rep, ref)
				}
			}
		})
	}
}
