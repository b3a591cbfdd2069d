// Command hfastd serves the paper pipeline over HTTP: profile an
// application skeleton under the IPM collector, provision an HFAST
// fabric for it, and compare the cost against fat-tree, mesh, and ICN
// baselines. Expensive profiling runs are cached, coalesced, and bounded
// by a worker pool; load beyond the pool and its queue is shed with 429.
//
// Usage:
//
//	hfastd -addr :8080 -workers 4 -queue 16 -cache 128
//	hfastd -prewarm   # profile the paper workloads before serving
//
//	curl -s localhost:8080/v1/apps
//	curl -s -X POST localhost:8080/v1/provision -d '{"app":"gtc","procs":64}'
//	curl -s 'localhost:8080/v1/compare?app=gtc&procs=64&format=text'
//	curl -s localhost:8080/metrics
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
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hfast-sim/hfast/internal/experiments"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/server"
)

func main() {
	fs := flag.NewFlagSet("hfastd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent pipeline executions (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "requests allowed to wait for a worker (0 = 4x workers)")
	cacheEntries := fs.Int("cache", 128, "plan cache capacity (entries)")
	timeout := fs.Duration("timeout", 2*time.Minute, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "cap on client-supplied deadlines")
	maxProcs := fs.Int("max-procs", 1024, "largest accepted world size")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	prewarm := fs.Bool("prewarm", false, "profile the paper workloads before serving")
	peers := fs.String("peers", "", "comma-separated base URLs of every replica (including this one); enables the clustered artifact tier")
	self := fs.String("self", "", "this replica's own base URL as it appears in -peers")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "deadline for one peer artifact fetch")
	clusterToken := fs.String("cluster-token", "", "shared secret authenticating peer artifact requests")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hfastd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxProcs:       *maxProcs,
		SelfURL:        *self,
		PeerTimeout:    *peerTimeout,
		ClusterToken:   *clusterToken,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	svc, err := server.New(cfg)
	if err != nil {
		log.Fatalf("hfastd: %v", err)
	}
	if *prewarm {
		// Into the server's own store, through its worker pool: a request
		// for a paper workload at default parameters is then a hit. Built
		// here even in a cluster: the peers may not be listening yet.
		start := time.Now()
		specs := experiments.PaperSpecs()
		ctx := pipeline.LocalOnly(context.Background())
		if err := experiments.RunnerOn(svc.Pipeline(), 0).WarmAll(ctx, specs, *workers); err != nil {
			log.Fatalf("hfastd: prewarm: %v", err)
		}
		log.Printf("hfastd: pre-warmed %d paper profiles in %v", len(specs), time.Since(start).Round(time.Millisecond))
	}
	if c := svc.Cluster(); c != nil {
		log.Printf("hfastd: clustered artifact tier: %d replicas, self %s", len(c.Peers()), c.Self())
	}
	// Listening before logging names the bound address, so -addr :0
	// picks a free port and the log says which.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hfastd: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("hfastd listening on %s", ln.Addr())
		errCh <- httpSrv.Serve(ln)
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("hfastd: %v, draining (budget %v)", sig, *drain)
	case err := <-errCh:
		log.Fatalf("hfastd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Refuse new pipeline work and wait for in-flight runs, then stop
	// accepting connections.
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("hfastd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hfastd: http shutdown: %v", err)
	}
	log.Print("hfastd: bye")
}
