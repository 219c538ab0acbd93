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

// TestRequestTimeoutWins: -request-timeout overrides -timeout in both
// configs, whichever order they are given in; -timeout alone applies
// to both.
func TestRequestTimeoutWins(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want time.Duration
	}{
		{[]string{"-timeout", "3s"}, 3 * time.Second},
		{[]string{"-timeout", "3s", "-request-timeout", "7s"}, 7 * time.Second},
		{[]string{"-request-timeout", "7s", "-timeout", "3s"}, 7 * time.Second},
	} {
		o := parseFlags(t, tc.args...)
		if o.cfg.RequestTimeout != tc.want || o.rcfg.RequestTimeout != tc.want {
			t.Errorf("%v: Config.RequestTimeout = %v, RouterConfig.RequestTimeout = %v, want %v",
				tc.args, o.cfg.RequestTimeout, o.rcfg.RequestTimeout, tc.want)
		}
	}
}
