package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftnet/internal/wire"
)

// TestChurnFlagValidation pins the churn subcommand's input hardening:
// nonsense rates, horizons and counts must be rejected with a clear
// error before they reach the Gillespie generator. (main exits nonzero
// on any returned error.)
func TestChurnFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-arrival", "-0.5"}, "-arrival"},
		{[]string{"-arrival", "NaN"}, "-arrival"},
		{[]string{"-arrival", "+Inf"}, "-arrival"},
		{[]string{"-repair", "-1"}, "-repair"},
		{[]string{"-repair", "NaN"}, "-repair"},
		{[]string{"-horizon", "0"}, "-horizon"},
		{[]string{"-horizon", "-3"}, "-horizon"},
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-workers", "-2"}, "-workers"},
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-burst-rate", "-1"}, "-burst-rate"},
		{[]string{"-burst-rate", "1", "-burst-size", "0"}, "-burst-size"},
	} {
		err := runChurn(tc.args)
		if err == nil {
			t.Errorf("churn %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("churn %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestLoadgenFlagValidation pins the load-harness boundary checks:
// negative fleet sizes, non-finite or non-positive rates and windows,
// and degenerate ring sizes are rejected with an error naming the flag
// before any server is started. (main exits nonzero on any returned
// error.)
func TestLoadgenFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-json-clients", "-1"}, "-json-clients"},
		{[]string{"-binfull-clients", "-3"}, "-binfull-clients"},
		{[]string{"-delta-clients", "-1"}, "-delta-clients"},
		{[]string{"-watch-clients", "-2"}, "-watch-clients"},
		{[]string{"-churn-rate", "NaN"}, "-churn-rate"},
		{[]string{"-churn-rate", "+Inf"}, "-churn-rate"},
		{[]string{"-churn-rate", "0"}, "-churn-rate"},
		{[]string{"-churn-rate", "-5"}, "-churn-rate"},
		{[]string{"-churn-nodes", "0"}, "-churn-nodes"},
		{[]string{"-duration", "0s"}, "-duration"},
		{[]string{"-duration", "-2s"}, "-duration"},
		{[]string{"-poll-interval", "0s"}, "-poll-interval"},
		{[]string{"-delta-ring", "0"}, "-delta-ring"},
		{[]string{"-delta-ring", "-4"}, "-delta-ring"},
	} {
		err := runLoadgen(tc.args)
		if err == nil {
			t.Errorf("loadgen %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("loadgen %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestServeFlagValidation covers the serve-side boundaries added with
// the delta ring: a ring must hold at least one record.
func TestServeFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-delta-ring", "0"}, "-delta-ring"},
		{[]string{"-delta-ring", "-1"}, "-delta-ring"},
		{[]string{"-flush-interval", "-1s"}, "-flush-interval"},
	} {
		err := runServe(tc.args)
		if err == nil {
			t.Errorf("serve %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestServeTimeouts pins the daemon's connection timeouts: headers must
// arrive within 10s and idle keep-alive connections close after 2m,
// while writes stay unbounded so /watch streams can live indefinitely.
func TestServeTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (watch streams are long-lived)", srv.WriteTimeout)
	}
}

// TestWireFlagValidation pins the offline decoder's contract: -in is
// mandatory, and a delta payload without its -base full snapshot is an
// explicit error, never a silently partial decode.
func TestWireFlagValidation(t *testing.T) {
	if err := runWire(nil); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Errorf("wire without -in: %v", err)
	}
	if err := runWire([]string{"-in", filepath.Join(t.TempDir(), "nope.bin")}); err == nil {
		t.Error("wire with missing file accepted")
	}

	delta, err := wire.EncodeDelta(&wire.Delta{
		Topology: "t", FromGeneration: 0, ToGeneration: 1,
		Side: 2, Dims: 2, Faults: []int{},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "delta.bin")
	if err := os.WriteFile(path, delta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWire([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), "-base") {
		t.Errorf("wire delta without -base: %v", err)
	}
}
