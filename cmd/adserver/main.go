// Command adserver simulates an advertiser population, freezes the
// resulting platform, and serves it over HTTP: live search queries in,
// auctioned ad blocks out.
//
// The process binds its socket immediately and answers /healthz from
// the first instant; /readyz stays 503 until the bootstrap simulation
// completes and the serving stack (admission control, per-request
// deadlines, panic recovery) is installed. SIGINT/SIGTERM drains
// in-flight requests within the -grace period before exiting.
//
// Usage:
//
//	adserver [-addr :8406] [-scale small|medium|full] [-seed N] [-days N]
//	         [-queries N] [-instance ID] [-max-inflight N]
//	         [-request-timeout D] [-grace D] [-eventlog DIR] [-eventlog-queue N]
//
// Then:
//
//	curl 'http://localhost:8406/search?q=free+download&country=US'
//	curl 'http://localhost:8406/stats'
//	curl 'http://localhost:8406/readyz'
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/eventlog"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: it binds the listener, serves health
// probes while the bootstrap simulation runs, installs the resilient
// handler, and blocks until a shutdown signal drains the server. A nil
// stop channel wires OS signals; onReady (optional) observes the bound
// address once serving begins.
func run(args []string, stderr io.Writer, stop <-chan os.Signal, onReady func(net.Addr)) error {
	f, cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	opts := adserver.Options{
		InstanceID:     f.instance,
		MaxInFlight:    f.maxInflight,
		RequestTimeout: f.reqTimeout,
	}

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return fmt.Errorf("adserver: listen %s: %w", f.addr, err)
	}
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		stop = sig
	}

	// The gate answers /healthz (and 503s everything else) from the
	// first instant; the real handler swaps in after bootstrap.
	gate := adserver.NewGate()
	hs := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      20 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- adserver.Serve(hs, ln, gate, f.grace, stop, log.Printf) }()

	fmt.Fprintf(stderr, "listening on %s; bootstrapping advertiser population (%s scale)...\n", ln.Addr(), f.scale)
	srv, err := bootstrap(cfg, f.seed, stderr)
	if err != nil {
		hs.Close()
		<-serveErr
		return err
	}
	if f.evDir != "" {
		dw, err := eventlog.NewDirWriter(f.evDir)
		if err != nil {
			hs.Close()
			<-serveErr
			return err
		}
		async := eventlog.NewAsync(dw, f.evQueue)
		srv.RecordEvents(async)
		defer func() {
			async.Close()
			if err := dw.Close(); err != nil {
				fmt.Fprintf(stderr, "eventlog: %v (%d events dropped)\n", err, dw.Dropped())
			} else {
				fmt.Fprintf(stderr, "eventlog: %d events (%d bytes) in %s; %d dropped under pressure\n",
					dw.Events(), dw.Bytes(), f.evDir, async.Dropped())
			}
		}()
		fmt.Fprintf(stderr, "recording impression events to %s (queue=%d)\n", f.evDir, f.evQueue)
	}
	gate.Install(srv.Handler(opts))
	fmt.Fprintf(stderr, "ready: serving %s on %s (max-inflight=%d request-timeout=%s grace=%s)\n",
		srv, ln.Addr(), opts.MaxInFlight, opts.RequestTimeout, f.grace)
	if onReady != nil {
		onReady(ln.Addr())
	}
	return <-serveErr
}

// flags is the parsed command line, less what only shapes the bootstrap
// simulation config.
type flags struct {
	addr, scale, instance, evDir string
	seed                         uint64
	maxInflight, evQueue         int
	reqTimeout, grace            time.Duration
}

// parseFlags parses the command line and maps the scale flags onto the
// bootstrap simulation config, so a bad flag fails before anything binds.
func parseFlags(args []string, stderr io.Writer) (flags, sim.Config, error) {
	var f flags
	fs := flag.NewFlagSet("adserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.addr, "addr", ":8406", "listen address")
	fs.StringVar(&f.scale, "scale", "small", "bootstrap simulation scale: small, medium, or full")
	fs.Uint64Var(&f.seed, "seed", 42, "simulation seed")
	days := fs.Int("days", 0, "override bootstrap simulation days (0 = scale default)")
	queries := fs.Int("queries", 0, "override bootstrap queries per day (0 = scale default)")
	fs.StringVar(&f.instance, "instance", "", "instance id stamped on X-Instance and /statz (empty = unset)")
	fs.IntVar(&f.maxInflight, "max-inflight", 256, "max concurrent /search requests before shedding with 429 (0 = unlimited)")
	fs.DurationVar(&f.reqTimeout, "request-timeout", 2*time.Second, "per-request deadline for /search (0 = none)")
	fs.DurationVar(&f.grace, "grace", 10*time.Second, "shutdown drain grace period")
	fs.StringVar(&f.evDir, "eventlog", "", "record served impressions as an event log in this directory (empty = off)")
	fs.IntVar(&f.evQueue, "eventlog-queue", 4096, "event recording queue depth; events beyond it are dropped, never queued on the request path (0 = no queue: an event is recorded only while the writer waits for one)")
	if err := fs.Parse(args); err != nil {
		return f, sim.Config{}, err
	}
	// Zero turns a knob off; a negative value would silently do the
	// same, so it is refused.
	if f.maxInflight < 0 || f.reqTimeout < 0 || f.grace < 0 || f.evQueue < 0 {
		return f, sim.Config{}, fmt.Errorf("adserver: -max-inflight, -request-timeout, -grace and -eventlog-queue must be >= 0")
	}
	cfg, err := sim.Shape{Scale: f.scale, Seed: f.seed, Days: *days, Queries: *queries}.Config()
	if err != nil {
		return f, sim.Config{}, fmt.Errorf("adserver: %w", err)
	}
	cfg.FullCreatives = true // serve real ad copy
	return f, cfg, nil
}

// bootstrap runs the advertiser-population simulation and freezes the
// result into a serveable Server.
func bootstrap(cfg sim.Config, seed uint64, stderr io.Writer) (*adserver.Server, error) {
	s := sim.New(cfg)
	res := s.Run()
	fmt.Fprintf(stderr, "simulated %d accounts, %d live ads in %s\n",
		res.Platform.NumAccounts(), res.Platform.LiveAds(), res.Elapsed.Round(1e7))
	return adserver.New(res.Platform, s.Queries(), auction.DefaultConfig(), seed), nil
}
