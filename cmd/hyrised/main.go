// Command hyrised is the standalone hyrise database server: it owns one
// table, serves every table operation to network
// clients over the length-prefixed binary protocol (see internal/server),
// and keeps delta fractions bounded with a background merge scheduler
// while traffic flows.
//
// # Quick start
//
// Start a 4-shard server with a fresh table and a snapshot file:
//
//	$ hyrised -addr :4860 -shards 4 \
//	    -schema 'order_id:uint64,qty:uint32,product:string' \
//	    -snapshot /var/lib/hyrise/sales.hyr
//
// Point a Go client at it and run a mixed workload:
//
//	c, err := client.Dial("localhost:4860")   // hyrise/client
//	id, _ := c.Insert([]any{uint64(1), uint32(3), "widget"})
//	snap, _ := c.Snapshot()                   // frozen, cross-shard
//	rows, _ := c.LookupAt(snap, "order_id", 1)
//	sum, _ := c.SumAt(snap, "qty")            // consistent with rows
//	c.Merge(client.MergeOptions{})            // online, reads keep flowing
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, stops the
// scheduler, folds the remaining deltas into the mains (-compact=false
// skips this), and saves the snapshot; at the next start the snapshot is
// loaded (its recorded shard layout wins over -shards and -key) and served
// again.
//
// # Flags
//
//	-addr            listen address (default 127.0.0.1:4860)
//	-table           table name for a fresh store (default "main")
//	-schema          fresh-store schema, comma-separated col:type pairs
//	                 (types: uint32, uint64, string)
//	-key             hash-partitioning column (default: first column)
//	-shards          shard count for a fresh store (default 1)
//	-snapshot        snapshot path: loaded at start when present, saved
//	                 on shutdown (empty = in-memory only)
//	-merge-fraction  delta/main fraction that triggers a merge; <= 0
//	                 disables the background scheduler (default 0.05)
//	-merge-interval  scheduler poll period (default 100ms)
//	-merge-threads   per-merge thread budget (0 = the whole machine,
//	                 shared by concurrent merges through one worker pool;
//	                 1 = the paper's constant single-thread background
//	                 merge)
//	-index           comma-separated columns to build group-key indexes
//	                 on at startup (indexes are in-memory, so a store
//	                 loaded from a snapshot re-indexes here)
//	-max-snapshots   snapshot registry capacity (default 1024; < 0 =
//	                 unlimited — every registered snapshot pins history)
//	-compact         merge all deltas before the shutdown save (default true)
//	-drain           graceful-shutdown timeout (default 10s)
//
// # Online resharding
//
// A running daemon can change its active shard count without stopping: start hyrised with -reshard N and it acts as an admin client
// instead of a server — it dials -addr, asks the daemon there to reshard
// to N active shards (reads and writes keep flowing throughout; followers
// replay the same migration from the op log), prints the migration
// report, and exits:
//
//	$ hyrised -addr 127.0.0.1:4860 -reshard 8
//
//	-reshard         admin mode: reshard the server at -addr to N active
//	                 shards and exit (0 = serve normally)
//
// # Observability
//
// The daemon exposes the server's metrics registry over a private HTTP
// endpoint when -metrics-addr is set:
//
//	$ hyrised -addr :4860 -metrics-addr 127.0.0.1:9860
//	$ curl -s http://127.0.0.1:9860/metrics   # Prometheus text format
//	$ curl -s http://127.0.0.1:9860/healthz   # role + lag-aware readiness
//
// The endpoint also mounts net/http/pprof under /debug/pprof/.  Keep it
// on a private interface: pprof and metrics are operator surfaces, not
// client ones.
//
//	-metrics-addr        HTTP listen address for /metrics, /healthz and
//	                     /debug/pprof/ (empty = disabled)
//	-slow-op-threshold   log ops slower than this duration with opcode,
//	                     latency, rows touched and snapshot epoch
//	                     (0 = disabled)
//	-log-format          log output format: text or json (default text)
//
// # Replication
//
// A daemon started with -replicate keeps an epoch-stamped operation log
// of every write and serves it to subscribing followers; one started with
// -follow bootstraps its store from the primary's snapshot stream, serves
// reads only (writes fail with the read-only status), and keeps applying
// the primary's ops:
//
//	$ hyrised -addr :4860 -replicate                  # primary
//	$ hyrised -addr :4861 -follow 127.0.0.1:4860      # follower
//	$ hyrised -addr :4862 -follow 127.0.0.1:4860      # another
//
// Followers serve reads that are exact as of their applied epoch: a
// pooled client (hyrise/client with Options.Followers) routes snapshot
// reads to any follower that has applied the snapshot's epoch and latest
// reads to any follower within its staleness bound, falling back to the
// primary otherwise.
//
//	-replicate       keep an op log and serve replication subscribers
//	-oplog-cap       retained op-log entries (default 1<<20); followers
//	                 that fall further behind must re-bootstrap
//	-follow          primary address: run as a read-only follower
//	                 (excludes -replicate and -snapshot)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hyrise"
	"hyrise/client"
	"hyrise/internal/server"
)

type config struct {
	addr          string
	table         string
	schema        string
	key           string
	shards        int
	snapshot      string
	mergeFraction float64
	mergeInterval time.Duration
	mergeThreads  int
	index         string
	maxSnapshots  int // 0 = server.DefaultMaxSnapshots
	compact       bool
	drain         time.Duration
	reshard       int
	replicate     bool
	oplogCap      int
	follow        string
	metricsAddr   string
	slowOp        time.Duration

	// onReady, when non-nil, receives the bound listen address once the
	// server is accepting (tests listen on :0 and need the real port).
	onReady func(addr string)
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:4860", "listen address")
	flag.StringVar(&cfg.table, "table", "main", "table name for a fresh store")
	flag.StringVar(&cfg.schema, "schema", "id:uint64,qty:uint32,product:string",
		"fresh-store schema as comma-separated col:type pairs")
	flag.StringVar(&cfg.key, "key", "", "hash-partitioning column (default: first column)")
	flag.IntVar(&cfg.shards, "shards", 1, "shard count for a fresh store")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "snapshot path (load on start, save on stop)")
	flag.Float64Var(&cfg.mergeFraction, "merge-fraction", 0.05,
		"delta fraction triggering a merge (<= 0 disables the scheduler)")
	flag.DurationVar(&cfg.mergeInterval, "merge-interval", 100*time.Millisecond, "scheduler poll period")
	flag.IntVar(&cfg.mergeThreads, "merge-threads", 0,
		"per-merge thread budget (0 = whole machine, shared by concurrent merges; 1 = single background thread)")
	flag.StringVar(&cfg.index, "index", "",
		"comma-separated columns to build group-key indexes on at startup")
	flag.IntVar(&cfg.maxSnapshots, "max-snapshots", server.DefaultMaxSnapshots,
		"snapshot registry capacity (< 0 = unlimited)")
	flag.BoolVar(&cfg.compact, "compact", true, "merge all deltas before the shutdown save")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown timeout")
	flag.IntVar(&cfg.reshard, "reshard", 0,
		"admin mode: reshard the server at -addr to N active shards and exit (0 = serve)")
	flag.BoolVar(&cfg.replicate, "replicate", false, "keep an op log and serve replication subscribers")
	flag.IntVar(&cfg.oplogCap, "oplog-cap", 0, "retained op-log entries (0 = 1<<20)")
	flag.StringVar(&cfg.follow, "follow", "", "primary address: run as a read-only follower")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "",
		"HTTP listen address for /metrics, /healthz and /debug/pprof/ (empty = disabled)")
	flag.DurationVar(&cfg.slowOp, "slow-op-threshold", 0,
		"log ops slower than this duration (0 = disabled)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "hyrised: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, logger); err != nil {
		logger.Error("hyrised failed", "err", err)
		os.Exit(1)
	}
}

// run owns the daemon lifecycle: open (or create) the store, start the
// merge scheduler, serve until ctx is cancelled, then drain, compact and
// save.  It is the whole daemon minus flags and signals, so tests run it
// in-process.
func run(ctx context.Context, cfg config, logger *slog.Logger) error {
	if cfg.reshard != 0 {
		return reshardRemote(cfg, logger)
	}
	if cfg.follow != "" {
		if cfg.replicate {
			return errors.New("-follow excludes -replicate (followers cannot chain)")
		}
		if cfg.snapshot != "" {
			return errors.New("-follow excludes -snapshot (the store comes from the primary)")
		}
	}

	var st *hyrise.Table
	var rep *hyrise.Replica
	var err error
	if cfg.follow != "" {
		// Follower: the store is bootstrapped from the primary's snapshot
		// stream and advanced by its op stream; Follow returns after the
		// first heartbeat, so reads are servable immediately.
		rep, err = hyrise.Follow(cfg.follow, hyrise.ReplicaOptions{Logger: logger})
		if err != nil {
			return fmt.Errorf("follow %s: %w", cfg.follow, err)
		}
		defer rep.Close()
		st = hyrise.FollowStore(rep)
		logger.Info("following primary", "primary", cfg.follow, "table", st.Name(),
			"epoch", rep.AppliedEpoch(), "lsn", rep.AppliedLSN())
	} else if st, err = openStore(cfg, logger); err != nil {
		return err
	}
	// Group-key indexes are in-memory only, so a store loaded from a
	// snapshot (or bootstrapped from a primary) starts unindexed and is
	// re-indexed here; merges keep the indexes current from then on.
	for _, col := range strings.Split(cfg.index, ",") {
		col = strings.TrimSpace(col)
		if col == "" {
			continue
		}
		t0 := time.Now()
		if err := st.CreateIndex(col); err != nil {
			return fmt.Errorf("index %s: %w", col, err)
		}
		logger.Info("indexed column", "column", col, "took", time.Since(t0).Round(time.Microsecond))
	}

	var olog *hyrise.OpLog
	if cfg.replicate {
		if olog, err = hyrise.EnableReplication(st, cfg.oplogCap); err != nil {
			return fmt.Errorf("attach op log: %w", err)
		}
		logger.Info("replication enabled", "oplog_cap", olog.Cap())
	}

	// One merge driver for the store's whole life: it follows the live
	// shard map (so partitions an online reshard creates are merged too),
	// polls only when -merge-fraction enables it, and compacts on shutdown
	// either way.
	sched := hyrise.NewScheduler(st, hyrise.SchedulerConfig{
		Fraction: cfg.mergeFraction,
		Interval: cfg.mergeInterval,
		Threads:  cfg.mergeThreads,
		OnError:  func(err error) { logger.Warn("merge failed", "err", err) },
	})
	if cfg.mergeFraction > 0 {
		if err := sched.Start(); err != nil {
			return err
		}
		defer sched.Stop()
	}

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	sopts := server.Options{
		Logger:          logger,
		MaxSnapshots:    cfg.maxSnapshots,
		OpLog:           olog,
		SlowOpThreshold: cfg.slowOp,
	}
	if rep != nil {
		// Assign only a live replica: a typed-nil pointer in the interface
		// field would read as "follower" to the server.
		sopts.Replica = rep
	}
	srv := server.New(st, sopts)

	// The observability endpoint is a separate private HTTP listener:
	// metrics, health and pprof never share a port with the data protocol.
	var obsSrv *http.Server
	if cfg.metricsAddr != "" {
		ol, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			l.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		obsSrv = &http.Server{Handler: srv.ObsHandler()}
		go func() {
			if err := obsSrv.Serve(ol); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("metrics endpoint stopped", "addr", ol.Addr().String(), "err", err)
			}
		}()
		logger.Info("observability endpoint up", "addr", ol.Addr().String())
	}

	role := "primary"
	if rep != nil {
		role = "follower"
	}
	logger.Info("serving", "table", st.Name(), "shards", st.NumShards(),
		"role", role, "addr", l.Addr().String())
	if cfg.onReady != nil {
		cfg.onReady(l.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", cfg.drain)
	stalePins := srv.SnapshotCount()
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("shutdown incomplete: connections closed forcibly", "err", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, server.ErrServerClosed) {
		logger.Warn("serve stopped with error", "err", err)
	}
	if obsSrv != nil {
		obsSrv.Close()
	}
	sched.Stop()

	// Shutdown released every snapshot still registered (clients are gone,
	// so stale snapshots must not pin dead versions into the shutdown save);
	// surface how many a misbehaving client left behind.
	if stalePins > 0 {
		logger.Info("released stale snapshot pins", "count", stalePins)
	}

	// Fold every partition's remaining delta — and the dead versions
	// lingering in its main — so the saved snapshot reloads fully
	// merged and reclaimed; the stopped scheduler carries the configured
	// merge budget and skips partitions with nothing to do.
	if cfg.compact && rep == nil {
		if err := sched.MergeNow(context.Background()); err != nil {
			logger.Warn("final merge failed", "err", err)
		}
	}
	if cfg.snapshot != "" {
		if err := hyrise.SaveFile(st, cfg.snapshot); err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
		logger.Info("saved snapshot", "path", cfg.snapshot, "rows", st.Rows())
	}
	return nil
}

// reshardRemote is the -reshard admin mode: dial the daemon at -addr as
// an ordinary client, ask it to reshard online, report, exit.
func reshardRemote(cfg config, logger *slog.Logger) error {
	c, err := client.Dial(cfg.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", cfg.addr, err)
	}
	defer c.Close()
	rep, err := c.Reshard(cfg.reshard)
	if err != nil {
		return fmt.Errorf("reshard to %d: %w", cfg.reshard, err)
	}
	logger.Info("resharded",
		"from", rep.From, "to", rep.To, "rows_migrated", rep.RowsMigrated,
		"wall", rep.Wall.Round(time.Microsecond),
		"cutover", rep.Cutover.Round(time.Microsecond),
		"map_version", rep.MapVersion, "cutover_epoch", rep.CutoverEpoch)
	return nil
}

// openStore loads the snapshot when it exists (the file's shard layout
// wins) and otherwise creates a fresh store from -schema/-key/-shards.
func openStore(cfg config, logger *slog.Logger) (*hyrise.Table, error) {
	if cfg.snapshot != "" {
		if _, err := os.Stat(cfg.snapshot); err == nil {
			st, err := hyrise.LoadFile(cfg.snapshot)
			if err != nil {
				return nil, fmt.Errorf("load snapshot: %w", err)
			}
			shards := st.NumShards()
			logger.Info("loaded snapshot", "path", cfg.snapshot, "rows", st.Rows(), "shards", shards)
			if cfg.shards > 1 && shards != cfg.shards {
				logger.Info("snapshot topology overrides -shards",
					"snapshot_shards", shards, "flag_shards", cfg.shards)
			}
			return st, nil
		}
	}
	schema, err := parseSchema(cfg.schema)
	if err != nil {
		return nil, err
	}
	key := cfg.key
	if key == "" {
		key = schema[0].Name
	}
	return hyrise.NewShardedTable(cfg.table, schema, key, cfg.shards)
}

// parseSchema turns "id:uint64,qty:uint32,product:string" into a Schema.
func parseSchema(spec string) (hyrise.Schema, error) {
	var schema hyrise.Schema
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, typ, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("bad column spec %q (want name:type)", field)
		}
		var ct hyrise.Type
		switch typ {
		case "uint32":
			ct = hyrise.Uint32
		case "uint64":
			ct = hyrise.Uint64
		case "string":
			ct = hyrise.String
		default:
			return nil, fmt.Errorf("column %q: unknown type %q", name, typ)
		}
		schema = append(schema, hyrise.ColumnDef{Name: name, Type: ct})
	}
	if len(schema) == 0 {
		return nil, errors.New("empty -schema")
	}
	return schema, nil
}
