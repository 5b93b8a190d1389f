package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBadInvocation checks that an unknown -exp or -scale, like a
// positional argument, prints the error and the usage to stderr and
// exits with status 2 before any experiment runs.
func TestRefusesBadInvocation(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fivm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
