package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestFlagValidation pins the command's input hardening: a negative
// worker count, a negative or NaN -ci and an unknown experiment id are
// errors (main exits nonzero on any returned error), not silent
// fallbacks to GOMAXPROCS or to running every trial.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-ci", "-0.5"}, "-ci"},
		{[]string{"-ci", "NaN"}, "-ci"},
		{[]string{"-run", "EXX"}, "unknown id"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("experiments %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("experiments %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestList checks that -list succeeds and prints the registry.
func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E17") {
		t.Fatalf("-list output lacks E17:\n%s", out.String())
	}
}
