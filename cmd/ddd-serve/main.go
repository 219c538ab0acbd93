// ddd-serve is the concurrent diagnosis service: a long-running
// HTTP/JSON daemon answering delay-defect diagnosis requests against
// precomputed compressed fault dictionaries (built by ddd-dict).
//
// Usage:
//
//	ddd-dict build -profile small -o dicts/small.dict
//	ddd-serve -dicts dicts [-addr :8344] [-preload small | -preload all]
//
//	curl -s localhost:8344/v1/dicts
//	curl -s localhost:8344/v1/dicts/small
//	curl -s -X POST localhost:8344/v1/diagnose -d '{
//	    "dict": "small", "method": "Alg_rev", "k": 5,
//	    "behavior": ["0100...", ...]}'
//	curl -s localhost:8344/stats
//	curl -s localhost:8344/metrics
//
// Endpoints: POST /v1/diagnose, POST /v1/diagnose/batch, GET
// /v1/dicts, GET /v1/dicts/{id}, GET /healthz, GET /readyz (503 until
// the preload list is warm), GET /stats, GET /metrics (Prometheus
// text format), and with -pprof the net/http/pprof suite under
// /debug/pprof/. SIGINT/SIGTERM drain in-flight requests before exit.
//
// Chaos engineering: -faults (or the DDD_FAULTS environment variable)
// arms deterministic fault-injection sites, comma-separated
// "site:prob:seed[:param]" clauses — see internal/fault. The flag
// wins when both are set. -load-retries bounds transparent retries of
// failed dictionary loads (capped exponential backoff, deterministic
// jitter); not-found is never retried.
//
// Router mode: -router with a comma-separated replica list (or
// -replicas-file with one URL per line, reloaded on change) turns the
// process into the sharded serving tier's front door instead of a
// replica — consistent-hash dictionary placement, hedged failover
// (-hedge-after, -max-hedges), and snapshot transfer between
// replicas (POST /v1/admin/transfer). See DESIGN.md §15.
//
// The router tier self-heals (DESIGN.md §16): replicas are
// health-checked on -health-interval with -fail-after/-recover-after
// hysteresis, per-replica circuit breakers (-breaker-failures,
// -breaker-cooldown, -breaker-successes) skip dead targets at request
// speed, membership changes arrive via POST /v1/admin/replicas or a
// -replicas-file edit, and every change triggers automatic dictionary
// rebalance (-rebalance-workers, -rebalance-retries, journaled to
// -rebalance-journal for restart resume).
//
//	ddd-serve -router http://127.0.0.1:8345,http://127.0.0.1:8346 \
//	    [-addr :8344] [-hedge-after 30ms] [-max-hedges 1] [-vnodes 64] \
//	    [-health-interval 2s] [-rebalance-journal rebalance.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
)

// options holds the parsed command line: the flags bind straight into
// the replica and router configs, plus the process-level settings
// neither config carries.
type options struct {
	cfg          service.Config
	rcfg         service.RouterConfig
	addr         string
	faults       string
	preload      string
	grace        time.Duration
	router       string
	replicasFile string
}

// newFlags registers the flags on fs. Call resolve after parsing.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	cfg, rcfg := &o.cfg, &o.rcfg
	fs.StringVar(&o.addr, "addr", ":8344", "listen address")
	fs.StringVar(&cfg.Dir, "dicts", "", "dictionary directory (required; files named <id>.dict)")
	fs.Int64Var(&cfg.CacheBytes, "cache-mb", 256, "dictionary cache budget in MiB")
	fs.IntVar(&cfg.CacheShards, "shards", 8, "cache shard count")
	fs.IntVar(&cfg.Workers, "workers", 0, "diagnosis workers (0 = NumCPU)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "worker queue depth (full queue answers 429)")
	fs.IntVar(&cfg.BatchWorkers, "batch-workers", 0, "parallelism inside one same-dictionary batch (0 = min(4, NumCPU))")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", 10*time.Second, "per-request deadline (replica and router)")
	fs.IntVar(&cfg.LoadRetries, "load-retries", 2, "transparent retries of a failed dictionary load (0 = fail fast)")
	fs.StringVar(&o.faults, "faults", "", "arm fault-injection sites: comma-separated site:prob:seed[:param] (also DDD_FAULTS env; flag wins)")
	fs.StringVar(&o.preload, "preload", "", "comma-separated dictionary ids to warm before ready, or \"all\"")
	fs.DurationVar(&o.grace, "grace", 15*time.Second, "shutdown drain budget")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.Engine, "engine", "", "timing engine the served dictionaries were built with (mc|analytic; shown in /stats)")
	fs.StringVar(&o.router, "router", "", "run as a router over this comma-separated replica URL list instead of serving dictionaries")
	fs.StringVar(&o.replicasFile, "replicas-file", "", "router: replica URL list file (one per line, #-comments); reloaded on change")
	fs.DurationVar(&rcfg.HedgeAfter, "hedge-after", 30*time.Millisecond, "router: latency budget before hedging to the next replica on the ring")
	fs.IntVar(&rcfg.MaxHedges, "max-hedges", 1, "router: extra attempts beyond the first (0 disables hedging)")
	fs.IntVar(&rcfg.VNodes, "vnodes", 0, "router: virtual nodes per replica on the placement ring (0 = default 64)")
	fs.DurationVar(&rcfg.HealthInterval, "health-interval", 2*time.Second, "router: replica health-probe cadence (0 disables active health checking)")
	fs.DurationVar(&rcfg.HealthTimeout, "health-timeout", 2*time.Second, "router: per-probe timeout")
	fs.IntVar(&rcfg.FailAfter, "fail-after", 3, "router: consecutive probe failures that demote a replica out of the ring")
	fs.IntVar(&rcfg.RecoverAfter, "recover-after", 2, "router: consecutive probe successes that promote a replica back")
	fs.IntVar(&rcfg.BreakerFailures, "breaker-failures", 3, "router: consecutive transport errors that open a replica's circuit")
	fs.DurationVar(&rcfg.BreakerCooldown, "breaker-cooldown", 2*time.Second, "router: open-circuit wait before a half-open probe")
	fs.IntVar(&rcfg.BreakerSuccesses, "breaker-successes", 2, "router: half-open probe successes that close the circuit")
	fs.IntVar(&rcfg.RebalanceWorkers, "rebalance-workers", 2, "router: concurrent snapshot transfers during a rebalance")
	fs.IntVar(&rcfg.RebalanceRetries, "rebalance-retries", 3, "router: per-transfer retry budget beyond the first attempt")
	fs.StringVar(&rcfg.JournalPath, "rebalance-journal", "", "router: JSONL transfer journal path (enables restart resume)")
	return o
}

// resolve finishes the configs after parsing: -cache-mb was parsed in
// MiB, and -request-timeout feeds both configs.
func (o *options) resolve() {
	o.cfg.CacheBytes <<= 20
	o.rcfg.RequestTimeout = o.cfg.RequestTimeout
}

func main() {
	o := newFlags(flag.CommandLine)
	flag.Parse()
	o.resolve()
	spec := o.faults
	if spec == "" {
		spec = os.Getenv("DDD_FAULTS")
	}
	if err := fault.Configure(spec); err != nil {
		log.Fatalf("ddd-serve: %v", err)
	}
	if spec != "" {
		log.Printf("fault injection armed: %s", spec)
	}
	if o.router != "" || o.replicasFile != "" {
		if err := runRouter(o); err != nil {
			log.Fatalf("ddd-serve: %v", err)
		}
		return
	}
	if o.cfg.Dir == "" {
		fmt.Fprintln(os.Stderr, "ddd-serve: -dicts is required (or -router/-replicas-file for router mode)")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		log.Fatalf("ddd-serve: %v", err)
	}
}

func run(o *options) error {
	cfg := o.cfg
	var err error
	if cfg.Preload, err = preloadList(o.preload, cfg.Dir); err != nil {
		return err
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(o.addr); err != nil {
		return err
	}
	log.Printf("serving on %s (dictionaries from %s)", srv.Addr(), cfg.Dir)

	// Warm the preload list in the background; /readyz turns 200 when
	// it completes. A failed preload is fatal — the operator asked for
	// those dictionaries to be resident.
	warmErr := make(chan error, 1)
	go func() {
		if len(cfg.Preload) > 0 {
			log.Printf("preloading %d dictionaries", len(cfg.Preload))
		}
		warmErr <- srv.Warmup(context.Background())
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-warmErr:
		if err != nil {
			shutdown(srv, o.grace)
			return err
		}
		log.Printf("ready")
		<-sig
	case <-sig:
	}
	log.Printf("shutting down, draining in-flight requests")
	return shutdown(srv, o.grace)
}

func shutdown(srv *service.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(ctx)
}

// runRouter runs the process as the sharded tier's router until
// SIGINT/SIGTERM, watching the replicas file (when given) for
// membership edits.
func runRouter(o *options) error {
	rcfg := o.rcfg
	switch {
	case o.replicasFile != "" && o.router != "":
		return fmt.Errorf("-router and -replicas-file are mutually exclusive")
	case o.replicasFile != "":
		var err error
		if rcfg.Replicas, err = service.LoadReplicasFile(o.replicasFile); err != nil {
			return err
		}
	default:
		rcfg.Replicas = strings.Split(o.router, ",")
	}
	rt, err := service.NewRouter(rcfg)
	if err != nil {
		return err
	}
	if err := rt.Start(o.addr); err != nil {
		return err
	}
	log.Printf("routing on %s over %v (hedge after %v, max %d, health interval %v)",
		rt.Addr(), rt.Ring().Replicas(), rcfg.HedgeAfter, rcfg.MaxHedges, rcfg.HealthInterval)
	stopWatch := make(chan struct{})
	if o.replicasFile != "" {
		go watchReplicasFile(rt, o.replicasFile, stopWatch)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopWatch)
	log.Printf("shutting down router")
	ctx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	return rt.Shutdown(ctx)
}

// watchReplicasFile polls the replicas file's mtime and applies edits
// to the router's membership. Polling (2s) rather than inotify keeps
// the dependency surface at the standard library, and a membership
// edit is an operator action — seconds of latency is fine.
func watchReplicasFile(rt *service.Router, path string, stop <-chan struct{}) {
	var lastMod time.Time
	if st, err := os.Stat(path); err == nil {
		lastMod = st.ModTime()
	}
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st, err := os.Stat(path)
		if err != nil || !st.ModTime().After(lastMod) {
			continue
		}
		lastMod = st.ModTime()
		urls, err := service.LoadReplicasFile(path)
		if err != nil {
			log.Printf("replicas file %s: %v (keeping current membership)", path, err)
			continue
		}
		changed, err := rt.ApplyReplicas(urls)
		if err != nil {
			log.Printf("replicas file %s: %v (keeping current membership)", path, err)
			continue
		}
		if changed {
			log.Printf("replicas file %s applied: membership now %v", path, rt.Membership().MemberURLs())
		}
	}
}

// preloadList expands the -preload flag: empty, "all" (every *.dict in
// dir), or a comma-separated id list.
func preloadList(preload, dir string) ([]string, error) {
	switch preload {
	case "":
		return nil, nil
	case "all":
		des, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var ids []string
		for _, de := range des {
			if name := de.Name(); !de.IsDir() && strings.HasSuffix(name, ".dict") {
				ids = append(ids, strings.TrimSuffix(name, ".dict"))
			}
		}
		return ids, nil
	default:
		return strings.Split(preload, ","), nil
	}
}
