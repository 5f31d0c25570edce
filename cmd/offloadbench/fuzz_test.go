package main

import (
	"strings"
	"testing"
)

// FuzzArgs drives the parse step — never a run — with arbitrary argv (NUL
// separates the arguments): every command line is a plan or an error, never
// a panic. Seeds, including the front ends' old failure cases, are in
// testdata/fuzz/FuzzArgs.
func FuzzArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, argv string) {
		args := strings.Split(argv, "\x00")
		pl, err := parse(args)
		switch {
		case err != nil && pl != nil:
			t.Fatalf("parse(%q) returned a plan and %v", args, err)
		case err == nil && (pl == nil || pl.p.cf == nil):
			t.Fatalf("parse(%q) returned neither a plan nor an error", args)
		case err != nil && err.Error() == "":
			t.Fatalf("parse(%q) returned an empty error", args)
		}
	})
}
