package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// build compiles the command in dir (relative to this package) into a
// temporary directory and returns the binary's path.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(dir))
	if out, err := exec.Command("go", "build", "-o", bin, dir).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	return bin
}

// freePort returns a loopback port nothing listens on right now.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// TestRefusesBadFlags checks that every bad command line is refused
// with one stderr line and exit status 2, and that no worker is left
// listening on the spawn port afterwards: every check runs before the
// router forks.
func TestRefusesBadFlags(t *testing.T) {
	bin := build(t, "../fivm-cluster")
	custom := []string{"-relations", "R:A,B", "-attrs", "A,B"}
	const u = "http://127.0.0.1:1"
	cases := []struct {
		name string
		args []string
		want string // a substring of the stderr line
	}{
		{"db preset", []string{"-spawn", "1", "-db", "retailer"}, "-db: fivm-cluster does not support -db presets"},
		{"preset rows", append([]string{"-spawn", "1", "-rows", "10"}, custom...), "-rows: fivm-cluster does not support -db presets"},
		{"preset load", append([]string{"-spawn", "1", "-load=false"}, custom...), "-load: fivm-cluster does not support -db presets"},
		{"wal with shards", append([]string{"-shards", u, "-wal", "d"}, custom...), "-wal configures the workers -spawn forks"},
		{"max-batch with shards", append([]string{"-shards", u, "-max-batch", "64"}, custom...), "-max-batch configures the workers -spawn forks"},
		{"trace with shards", append([]string{"-shards", u, "-trace"}, custom...), "-trace configures the workers -spawn forks"},
		{"negative chan-cap", append([]string{"-spawn", "1", "-chan-cap", "-1"}, custom...), "ChannelCap -1 is negative"},
		{"repeated shard", append([]string{"-shards", u + "," + u}, custom...), "is listed twice"},
		{"unknown shard-by", append([]string{"-spawn", "1", "-shard-by", "Nope"}, custom...), "shard-by relation Nope is not an input relation"},
		{"negative cover-wait", append([]string{"-spawn", "1", "-cover-wait", "-1s"}, custom...), "cover wait -1s is negative"},
		{"negative retry-budget", append([]string{"-spawn", "1", "-retry-budget", "-1s"}, custom...), "retry budget -1s is negative"},
		{"negative shard-timeout", append([]string{"-spawn", "1", "-shard-timeout", "-1s"}, custom...), "-shard-timeout -1s is negative"},
		{"spawn port out of range", append([]string{"-spawn", "1", "-spawn-port", "70000"}, custom...), "-spawn-port 70000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			port := freePort(t)
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			if slices.Contains(tc.args, "-spawn") && !slices.Contains(tc.args, "-spawn-port") {
				args = append(args, "-spawn-port", strconv.Itoa(port))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, args...)
			cmd.WaitDelay = time.Second // an orphaned worker would hold stderr open
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
			if c, err := net.DialTimeout("tcp", "127.0.0.1:"+strconv.Itoa(port), time.Second); err == nil {
				c.Close()
				t.Errorf("a process still listens on the spawn port %d", port)
			}
		})
	}
}

// TestWorkerArgs checks a spawned worker's command line: it names the
// worker's address, carries every explicitly set daemon flag (-wal
// rewritten to the worker's own directory) and no router flag, and
// parses back into the router's daemon options.
func TestWorkerArgs(t *testing.T) {
	c := newConfig(flag.NewFlagSet("fivm-cluster", flag.ContinueOnError))
	if err := c.fs.Parse([]string{
		"-addr", ":9000", "-spawn", "2", "-spawn-port", "9001", "-shard-by", "R",
		"-cover-wait", "1s", "-retry-budget", "1s", "-shard-timeout", "1s",
		"-relations", "R:A,B", "-attrs", "A,B", "-wal", "/data", "-fsync", "always",
		"-max-batch", "64", "-chan-cap", "32", "-segment-bytes", "1024",
		"-fsync-interval", "5ms", "-trace",
	}); err != nil {
		t.Fatal(err)
	}
	got := c.workerArgs(1)
	want := []string{"-worker", "-worker-addr", "127.0.0.1:9002",
		"-attrs=A,B", "-chan-cap=32", "-fsync=always", "-fsync-interval=5ms", "-max-batch=64",
		"-relations=R:A,B", "-segment-bytes=1024", "-trace=true", "-wal=" + filepath.Join("/data", "shard-1")}
	if !slices.Equal(got, want) {
		t.Fatalf("workerArgs(1) =\n%q\nwant\n%q", got, want)
	}

	w := newConfig(flag.NewFlagSet("fivm-cluster", flag.ContinueOnError))
	if err := w.fs.Parse(got); err != nil {
		t.Fatal(err)
	}
	wantOpts := c.Options
	wantOpts.WALDir = filepath.Join("/data", "shard-1")
	if !w.worker || w.workerAddr != "127.0.0.1:9002" || !reflect.DeepEqual(w.Options, wantOpts) {
		t.Errorf("worker parsed worker=%v addr=%q options %+v, want the router's %+v", w.worker, w.workerAddr, w.Options, wantOpts)
	}
}

// helpLines parses a binary's -h output into each flag's help block
// (its name line and its indented description), keyed by flag name.
func helpLines(t *testing.T, bin string) map[string]string {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	flags := map[string]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
		}
		if name != "" && line != "" {
			flags[name] += line + "\n"
		}
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", bin, out)
	}
	return flags
}

// TestHelpMatchesServe: every flag fivm-serve prints, except -addr,
// appears in fivm-cluster -h with the same help text and default.
func TestHelpMatchesServe(t *testing.T) {
	serve, cluster := helpLines(t, build(t, "../fivm-serve")), helpLines(t, build(t, "../fivm-cluster"))
	for name, help := range serve {
		if name != "addr" && cluster[name] != help {
			t.Errorf("-%s: fivm-serve prints\n%sfivm-cluster prints\n%s", name, help, cluster[name])
		}
	}
}
