// Command fivm-cluster runs the multi-node serving router: it fans v1
// API writes out to fivm-serve workers by join key and ring-merges
// their partial results on reads, so a cluster answers exactly like one
// engine over the whole stream (see internal/cluster and docs/API.md).
//
//	fivm-cluster -shards http://h1:8344,http://h2:8344 \
//	             -relations "R:A,B;S:B,C" -query "..."   # existing workers
//	fivm-cluster -spawn 4 -relations "R:A,B;S:B,C" ...   # dev mode: forks
//	             4 local workers on successive ports and routes to them
//
// The flags are fivm-serve's (internal/daemon) plus the router's own.
// The engine-defining ones also build the router's data-less merger
// engine, so they must match every worker's. -shard-by picks the
// partitioned anchor relation (default: the first declared); every
// other relation broadcasts to all shards. A -spawn worker is
// fivm-serve, flag for flag: this binary re-executed with -worker and
// every explicitly set fivm-serve flag, except that -wal DIR becomes
// DIR/shard-i. -shards refuses the other fivm-serve flags, which
// existing workers take on their own command lines, and both modes
// refuse the presets (-db, -rows, -load), whose bulk load would
// duplicate the anchor relation into every shard. Every check, the
// router and its listener come before any fork: a bad flag exits 2
// with one stderr line, and no worker outlives the router.
//
// The router serves /v1/update, /v1/model, /v1/predict, /v1/stats,
// /v1/healthz, /v1/viewtree and /metrics on -addr with the same wire
// protocol as a single worker.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/fivm/client"
	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/daemon"
)

// config is the command line: the daemon's flags, which a -worker runs
// and -spawn forwards, plus the router's own.
type config struct {
	daemon.Options
	groups map[string]daemon.FlagGroup
	fs     *flag.FlagSet

	addr, shards, shardBy, workerAddr    string
	spawn, spawnPort                     int
	coverWait, retryBudget, shardTimeout time.Duration
	version, worker                      bool
}

func newConfig(fs *flag.FlagSet) *config {
	c := &config{fs: fs}
	c.groups = c.RegisterFlags(fs)
	fs.StringVar(&c.addr, "addr", ":8350", "router HTTP listen address")
	fs.StringVar(&c.shards, "shards", "", "comma-separated worker base URLs (shard i = i-th URL); mutually exclusive with -spawn")
	fs.IntVar(&c.spawn, "spawn", 0, "dev mode: fork N local workers and route to them")
	fs.IntVar(&c.spawnPort, "spawn-port", 8351, "first worker port in -spawn mode (worker i listens on 127.0.0.1:port+i)")
	fs.StringVar(&c.shardBy, "shard-by", "", "anchor relation partitioned across shards (default: first declared relation)")
	fs.DurationVar(&c.coverWait, "cover-wait", 2*time.Second, "how long a merged read waits for every shard to cover acked writes")
	fs.DurationVar(&c.retryBudget, "retry-budget", 2*time.Second, "how long a write retries a shard's transport failures and 503s before giving up")
	fs.DurationVar(&c.shardTimeout, "shard-timeout", 10*time.Second, "per-attempt ceiling on any one shard HTTP request, so a black-holed worker fails the attempt instead of hanging it (0 = none)")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
	fs.BoolVar(&c.worker, "worker", false, "internal: run one spawned worker daemon (set by -spawn re-exec)")
	fs.StringVar(&c.workerAddr, "worker-addr", "", "internal: the spawned worker's listen address")
	return c
}

// usageError is a bad command line: one stderr line and exit status 2.
type usageError struct{ error }

func usage(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()
	if c.version {
		fmt.Println(buildinfo.Version())
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := c.run(ctx)
	stop()
	if errors.As(err, new(usageError)) {
		fmt.Fprintf(os.Stderr, "fivm-cluster: %v\n", err)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx ends. Every worker it forks is reaped before it
// returns, whatever the error.
func (c *config) run(ctx context.Context) error {
	if c.worker {
		if err := c.Validate(); err != nil {
			return usageError{err}
		}
		c.Addr = c.workerAddr
		c.Logf = log.New(os.Stderr, "worker "+c.Addr+" ", log.LstdFlags).Printf
		return daemon.Run(ctx, c.Options)
	}
	rt, urls, err := c.router()
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if c.spawn > 0 {
		var children []*exec.Cmd
		defer func() { reapWorkers(children) }()
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		for i := range c.spawn {
			cmd := exec.Command(exe, c.workerArgs(i)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawning worker %d: %w", i, err)
			}
			children = append(children, cmd)
			log.Printf("spawned worker %d (pid %d) on %s", i, cmd.Process.Pid, c.spawnAddr(i))
		}
		if err := waitHealthy(ctx, urls); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	log.Printf("fivm-cluster routing %d shards on %s (engine=%s, shard-by=%s)",
		len(urls), ln.Addr(), rt.Kind(), rt.Map().Anchor())
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	return nil
}

// router checks the router's flags and the full daemon configuration,
// then builds the router. It contacts no shard, so it runs before any
// worker is forked.
func (c *config) router() (*cluster.Router, []string, error) {
	if (c.shards == "") == (c.spawn <= 0) {
		return nil, nil, usage("exactly one of -shards or -spawn is required")
	}
	var refused error
	c.fs.Visit(func(f *flag.Flag) {
		g := c.groups[f.Name]
		switch {
		case refused != nil:
		case g == daemon.PresetFlag:
			refused = usage("-%s: fivm-cluster does not support -db presets: the preset bulk load would be duplicated into every shard instead of partitioned; declare the schema with -relations and stream the data through the router", f.Name)
		case c.shards != "" && (g == daemon.WorkerFlag || f.Name == "spawn-port"):
			refused = usage("-%s configures the workers -spawn forks and is refused with -shards; configure each existing worker instead", f.Name)
		}
	})
	switch {
	case refused != nil:
		return nil, nil, refused
	case c.shardTimeout < 0:
		return nil, nil, usage("-shard-timeout %v is negative (0 = none)", c.shardTimeout)
	case c.spawn > 0 && (c.spawnPort < 1 || c.spawnPort+c.spawn-1 > 65535):
		return nil, nil, usage("-spawn-port %d: the %d worker ports must lie in 1..65535", c.spawnPort, c.spawn)
	}
	if err := c.Validate(); err != nil {
		return nil, nil, usageError{err}
	}
	var urls []string
	for i := range c.spawn {
		urls = append(urls, "http://"+c.spawnAddr(i))
	}
	for _, u := range strings.Split(c.shards, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	cfg, _, _ := c.EngineConfig() // Validate has resolved it
	ccfg := cluster.Config{ShardURLs: urls, Engine: cfg, ShardBy: c.shardBy, CoverWait: c.coverWait, RetryBudget: c.retryBudget}
	if c.shardTimeout > 0 {
		ccfg.HTTPClient = &http.Client{Timeout: c.shardTimeout}
	}
	rt, err := cluster.New(ccfg)
	if err != nil {
		return nil, nil, usageError{err}
	}
	return rt, urls, nil
}

func (c *config) spawnAddr(i int) string { return "127.0.0.1:" + strconv.Itoa(c.spawnPort+i) }

// workerArgs is spawned worker i's command line: -worker, its address,
// and every explicitly set daemon flag verbatim, except that -wal DIR
// becomes DIR/shard-i. Router flags stay with the router.
func (c *config) workerArgs(i int) []string {
	args := []string{"-worker", "-worker-addr", c.spawnAddr(i)}
	c.fs.Visit(func(f *flag.Flag) {
		if c.groups[f.Name] == 0 {
			return
		}
		v := f.Value.String()
		if f.Name == "wal" && v != "" {
			v = filepath.Join(v, "shard-"+strconv.Itoa(i))
		}
		args = append(args, "-"+f.Name+"="+v)
	})
	return args
}

// reapWorkers asks every child to shut down gracefully and waits.
func reapWorkers(children []*exec.Cmd) {
	for _, c := range children {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range children {
		_ = c.Wait()
	}
}

// waitHealthy polls every worker's /v1/healthz until it answers OK, for
// at most 30 s.
func waitHealthy(ctx context.Context, urls []string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, u := range urls {
		cli := client.New(u, client.WithRetries(0))
		for h, err := cli.Healthz(ctx); err != nil || !h.OK; h, err = cli.Healthz(ctx) {
			select {
			case <-ctx.Done():
				return fmt.Errorf("worker %s not healthy (last: %v): %w", u, err, ctx.Err())
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}
