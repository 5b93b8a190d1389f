package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBadFlags checks that every bad flag is refused with one
// stderr line and exit status 2 before any data is generated: -dump-csv
// would write the generated database, so its directory must not exist.
func TestRefusesBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fivm-demo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string // a substring of the stderr line
	}{
		{"unknown label", []string{"-label", "foo"}, "-label foo is not an MI feature of retailer"},
		{"label of the other preset", []string{"-db", "favorita", "-label", "ksn"}, "-label ksn is not an MI feature of favorita"},
		{"unknown root", []string{"-root", "foo"}, "-root foo is not an MI feature"},
		{"negative bulks", []string{"-bulks", "-1"}, "-bulks -1 is negative"},
		{"zero bulk size", []string{"-bulk-size", "0"}, "-bulk-size 0 is not positive"},
		{"negative bulk size", []string{"-bulk-size", "-5"}, "-bulk-size -5 is not positive"},
		{"negative threshold", []string{"-threshold", "-0.1"}, "-threshold -0.1 is negative or not finite"},
		{"NaN threshold", []string{"-threshold", "NaN"}, "-threshold NaN is negative or not finite"},
		{"infinite threshold", []string{"-threshold", "+Inf"}, "-threshold +Inf is negative or not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump := filepath.Join(t.TempDir(), "csv")
			cmd := exec.Command(bin, append(tc.args, "-dump-csv", dump)...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit = %v, want status 2", err)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || !strings.Contains(lines[0], tc.want) {
				t.Errorf("stderr = %q, want one line containing %q", stderr.String(), tc.want)
			}
			if _, err := os.Stat(dump); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("the database was generated and dumped to %s", dump)
			}
		})
	}
}
