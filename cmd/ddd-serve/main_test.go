package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func parseFlags(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("ddd-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o.resolve()
	return o
}

// TestDefaultConfigs pins the flag defaults to the configs ddd-serve
// has always started with: every field bound to a flag, and nothing
// else set.
func TestDefaultConfigs(t *testing.T) {
	o := parseFlags(t)
	wantCfg := service.Config{
		CacheBytes:     256 << 20,
		CacheShards:    8,
		QueueDepth:     64,
		RequestTimeout: 10 * time.Second,
		LoadRetries:    2,
	}
	if !reflect.DeepEqual(o.cfg, wantCfg) {
		t.Errorf("Config = %+v, want %+v", o.cfg, wantCfg)
	}
	wantRcfg := service.RouterConfig{
		HedgeAfter:       30 * time.Millisecond,
		MaxHedges:        1,
		RequestTimeout:   10 * time.Second,
		HealthInterval:   2 * time.Second,
		HealthTimeout:    2 * time.Second,
		FailAfter:        3,
		RecoverAfter:     2,
		BreakerFailures:  3,
		BreakerCooldown:  2 * time.Second,
		BreakerSuccesses: 2,
		RebalanceWorkers: 2,
		RebalanceRetries: 3,
	}
	if !reflect.DeepEqual(o.rcfg, wantRcfg) {
		t.Errorf("RouterConfig = %+v, want %+v", o.rcfg, wantRcfg)
	}
	if o.addr != ":8344" || o.grace != 15*time.Second {
		t.Errorf("addr, grace = %q, %v; want \":8344\", 15s", o.addr, o.grace)
	}
}

// TestRequestTimeoutWins: -request-timeout, the one deadline flag,
// reaches both configs.
func TestRequestTimeoutWins(t *testing.T) {
	o := parseFlags(t, "-request-timeout", "7s")
	if o.cfg.RequestTimeout != 7*time.Second || o.rcfg.RequestTimeout != 7*time.Second {
		t.Errorf("Config.RequestTimeout = %v, RouterConfig.RequestTimeout = %v, want 7s",
			o.cfg.RequestTimeout, o.rcfg.RequestTimeout)
	}
}
