// Command fivm-cluster runs the multi-node serving router: it fans v1
// API writes out to fivm-serve workers by join key and ring-merges
// their partial results on reads, so a cluster answers exactly like one
// engine over the whole stream (see internal/cluster and docs/API.md).
//
// Two ways to name the shards:
//
//	fivm-cluster -shards http://h1:8344,http://h2:8344 \
//	             -relations "R:A,B;S:B,C" -query "..."   # existing workers
//	fivm-cluster -spawn 4 -relations "R:A,B;S:B,C" ...   # dev mode: forks
//	             4 local workers on successive ports and routes to them
//
// Every worker must run the same engine configuration the router is
// given — the router validates it by opening its own data-less merger
// engine from the same flags. -shard-by picks the partitioned anchor
// relation (default: the first declared relation); all other relations
// broadcast to every shard.
//
// In -spawn mode each worker is the same daemon fivm-serve runs,
// re-executed from this binary with the hidden -worker flag. With -wal
// DIR each worker i gets its own log directory DIR/shard-i, so a killed
// worker recovers its shard's acknowledged updates on restart. The -db
// presets are rejected: their bulk load would duplicate the anchor
// relation into every shard instead of partitioning it.
//
// The router listens on -addr and serves /v1/update, /v1/model,
// /v1/predict, /v1/stats, /v1/healthz, /v1/viewtree, and /metrics with
// the same wire protocol as a single worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
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
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8350", "router HTTP listen address")
	shards := flag.String("shards", "", "comma-separated worker base URLs (shard i = i-th URL); mutually exclusive with -spawn")
	spawn := flag.Int("spawn", 0, "dev mode: fork N local workers and route to them")
	spawnPort := flag.Int("spawn-port", 8351, "first worker port in -spawn mode (worker i listens on 127.0.0.1:port+i)")
	shardBy := flag.String("shard-by", "", "anchor relation partitioned across shards (default: first declared relation)")
	coverWait := flag.Duration("cover-wait", 2*time.Second, "how long a merged read waits for every shard to cover acked writes")
	retryBudget := flag.Duration("retry-budget", 2*time.Second, "how long a write retries a shard's transport failures and 503s before giving up (negative disables)")
	shardTimeout := flag.Duration("shard-timeout", 10*time.Second, "per-attempt ceiling on any one shard HTTP request, so a black-holed worker fails the attempt instead of hanging it (0 = none)")
	db := flag.String("db", "", "rejected: presets bulk-load per worker and would duplicate the anchor relation")
	engine := flag.String("engine", "", "engine kind: analysis|count|float|covar|join (default: inferred from the other flags)")
	query := flag.String("query", "", `SQL-subset query for count/float engines`)
	relations := flag.String("relations", "", `relations, e.g. "R:A,B;S:B,C"`)
	features := flag.String("features", "", `analysis features, e.g. "A,B:cat,C:bin=10"`)
	attrs := flag.String("attrs", "", `covar aggregate attributes, e.g. "A,B,C"`)
	label := flag.String("label", "", "ridge label attribute for analysis engines")
	walDir := flag.String("wal", "", "-spawn mode: durability root; worker i logs under DIR/shard-i")
	fsyncPolicy := flag.String("fsync", string(wal.PolicyInterval), "-spawn mode: worker WAL fsync policy: always|interval|off")
	highWatermark := flag.Int("high-watermark", 0, "-spawn mode: worker ingest shed watermark (0 = channel capacity)")
	dedupCap := flag.Int("dedup-cap", 0, "-spawn mode: worker idempotency dedup table capacity (0 = 8192)")
	checkpointEvery := flag.Duration("checkpoint-interval", time.Minute, "-spawn mode: worker checkpoint period")
	version := flag.Bool("version", false, "print build information and exit")
	worker := flag.Bool("worker", false, "internal: run one spawned worker daemon (set by -spawn re-exec)")
	workerAddr := flag.String("worker-addr", "", "internal: the spawned worker's listen address")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if *db != "" {
		fatalUsage("fivm-cluster does not support -db presets: the preset bulk load would be duplicated into every shard instead of partitioned; declare the schema with -relations and stream the data through the router")
	}

	o := daemon.Options{
		Addr:               *workerAddr,
		Engine:             *engine,
		Query:              *query,
		Relations:          *relations,
		Features:           *features,
		Attrs:              *attrs,
		Label:              *label,
		WALDir:             *walDir,
		FsyncPolicy:        *fsyncPolicy,
		FsyncInterval:      100 * time.Millisecond,
		CheckpointInterval: *checkpointEvery,
		SegmentBytes:       64 << 20,
		HighWatermark:      *highWatermark,
		DedupCap:           *dedupCap,
	}

	if *worker {
		o.Logf = log.New(os.Stderr, fmt.Sprintf("worker %s ", o.Addr), log.LstdFlags).Printf
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := daemon.Run(ctx, o); err != nil {
			log.Fatal(err)
		}
		return
	}

	if (*shards == "") == (*spawn <= 0) {
		fatalUsage("exactly one of -shards or -spawn is required")
	}
	// Validate the shared engine configuration up front, with the same
	// error text the workers themselves would print.
	probe := o
	probe.Addr = ":0"
	probe.WALDir = "" // the router itself never opens a WAL
	if err := probe.Validate(); err != nil {
		fatalUsage(err.Error())
	}
	cfg, _, err := o.EngineConfig()
	if err != nil {
		fatalUsage(err.Error())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var urls []string
	var children []*exec.Cmd
	if *spawn > 0 {
		urls, children, err = spawnWorkers(*spawn, *spawnPort, *walDir)
		if err != nil {
			log.Fatal(err)
		}
		defer reapWorkers(children)
		if err := waitHealthy(ctx, urls, 30*time.Second); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, u := range strings.Split(*shards, ",") {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				urls = append(urls, u)
			}
		}
	}

	clusterCfg := cluster.Config{
		ShardURLs:   urls,
		Engine:      cfg,
		ShardBy:     *shardBy,
		CoverWait:   *coverWait,
		RetryBudget: *retryBudget,
	}
	if *shardTimeout > 0 {
		clusterCfg.HTTPClient = &http.Client{Timeout: *shardTimeout}
	}
	rt, err := cluster.New(clusterCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	go func() {
		log.Printf("fivm-cluster routing %d shards on %s (engine=%s, shard-by=%s)",
			len(urls), *addr, rt.Kind(), rt.Map().Anchor())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	log.Print("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}

func fatalUsage(msg string) {
	fmt.Fprintf(os.Stderr, "fivm-cluster: %s\n", msg)
	os.Exit(2)
}

// spawnWorkers re-executes this binary once per shard with the hidden
// -worker flag, forwarding the engine flags verbatim so every worker
// runs the router's exact configuration.
func spawnWorkers(n, portBase int, walDir string) (urls []string, children []*exec.Cmd, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	// Forward every engine/pipeline flag that was explicitly set.
	var common []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "engine", "query", "relations", "features", "attrs", "label",
			"fsync", "high-watermark", "dedup-cap", "checkpoint-interval":
			common = append(common, "-"+f.Name, f.Value.String())
		}
	})
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("127.0.0.1:%d", portBase+i)
		args := append([]string{"-worker", "-worker-addr", a}, common...)
		if walDir != "" {
			args = append(args, "-wal", filepath.Join(walDir, "shard-"+strconv.Itoa(i)))
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			reapWorkers(children)
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		children = append(children, cmd)
		urls = append(urls, "http://"+a)
		log.Printf("spawned worker %d (pid %d) on %s", i, cmd.Process.Pid, a)
	}
	return urls, children, nil
}

// reapWorkers asks every child to shut down gracefully and waits.
func reapWorkers(children []*exec.Cmd) {
	for _, c := range children {
		if c.Process != nil {
			_ = c.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, c := range children {
		_ = c.Wait()
	}
}

// waitHealthy polls every worker's /v1/healthz until it answers or the
// timeout expires.
func waitHealthy(ctx context.Context, urls []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, u := range urls {
		cli := client.New(u, client.WithRetries(0))
		for {
			hctx, cancel := context.WithTimeout(ctx, time.Second)
			h, err := cli.Healthz(hctx)
			cancel()
			if err == nil && h.OK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %s not healthy after %v (last: %v)", u, timeout, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}
