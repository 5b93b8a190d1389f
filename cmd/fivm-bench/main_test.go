package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// bin is the fivm-bench binary, built once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fivm-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "fivm-bench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRefusesBadInvocation checks that an unknown -exp or -scale, like a
// positional argument, prints the error and the usage to stderr and
// exits with status 2 before any experiment runs.
func TestRefusesBadInvocation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional argument", []string{"loadgen"}, `unexpected argument "loadgen"`},
		{"unknown experiment", []string{"-exp", "e9"}, `unknown -exp "e9"`},
		{"unknown scale", []string{"-scale", "huge"}, `unknown -scale "huge" (small|demo)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit = %v, want status 2", err)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing (no experiment may run)", stdout.String())
			}
			if s := stderr.String(); !strings.HasPrefix(s, "fivm-bench: ") || !strings.Contains(s, tc.want) || !strings.Contains(s, "-exp string") {
				t.Errorf("stderr = %q, want %q and the usage", s, tc.want)
			}
		})
	}
}

// TestE1PrintsFigure1 runs -exp e1 outside the source tree, as an
// installed binary runs, and checks that stdout carries Figure 1's
// whole walkthrough.
func TestE1PrintsFigure1(t *testing.T) {
	var want strings.Builder
	if err := experiments.Figure1(&want); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-exp", "e1")
	cmd.Dir = t.TempDir()
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fivm-bench -exp e1: %v", err)
	}
	if !strings.Contains(string(out), want.String()) {
		t.Errorf("stdout =\n%s\nwant it to contain experiments.Figure1's output:\n%s", out, want.String())
	}
}
