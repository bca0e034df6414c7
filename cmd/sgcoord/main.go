// Command sgcoord is the cluster coordinator: it shards the
// content-addressed result keyspace across a set of sgserved backends
// with a consistent-hash ring (multi-probe, virtual nodes), coalesces
// identical in-flight requests cluster-wide on top of each backend's
// own singleflight, health-checks the backends (ejection after
// consecutive failures, jittered exponential-backoff re-probe), retries
// idempotent requests on the next ring replica when a backend fails,
// and admits work through a bounded priority queue in which interactive
// /v1/run callers outrank batch sweeps and, within a class, the client
// holding the fewest slots goes first.
//
// Usage:
//
//	sgcoord -addr :9090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	sgcoord -addr 127.0.0.1:0 -backends ... -vnodes 128 -max-concurrent 16
//
// The /v1 wire surface is sgserved-compatible; /cluster/state and
// /cluster/shard expose placement.
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

	"specguard/internal/buildinfo"
	"specguard/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address (host:port; :0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated sgserved base URLs (required)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	replicas := flag.Int("replicas", 0, "max distinct backends to try per request (0 = all)")
	maxConcurrent := flag.Int("max-concurrent", 16, "admission: max concurrently admitted units")
	maxQueue := flag.Int("max-queue", 64, "admission: max waiters before shedding")
	healthInterval := flag.Duration("health-interval", time.Second, "interval between backend /readyz probes")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures before a backend is ejected")
	attemptTimeout := flag.Duration("attempt-timeout", 90*time.Second, "per-attempt upstream timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("sgcoord"))
		return
	}
	logger := log.New(os.Stderr, "sgcoord: ", log.LstdFlags)

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		logger.Fatal("at least one -backends URL is required")
	}

	if err := run(*addr, urls, *vnodes, *replicas, *maxConcurrent, *maxQueue,
		*healthInterval, *failThreshold, *attemptTimeout, *drainTimeout, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(addr string, backends []string, vnodes, replicas, maxConcurrent, maxQueue int,
	healthInterval time.Duration, failThreshold int,
	attemptTimeout, drainTimeout time.Duration, logger *log.Logger) error {
	coord, err := cluster.New(cluster.Config{
		Backends:       backends,
		VNodes:         vnodes,
		Replicas:       replicas,
		AttemptTimeout: attemptTimeout,
		Health: cluster.HealthConfig{
			Interval:      healthInterval,
			FailThreshold: failThreshold,
		},
		Admission: cluster.AdmissionConfig{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      maxQueue,
		},
		Logf: logger.Printf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: coord.Handler()}
	logger.Printf("%s listening on %s (%d backends, %d vnodes)",
		buildinfo.Version("sgcoord"), ln.Addr(), len(backends), vnodes)

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("%s received, draining (timeout %s)", sig, drainTimeout)
	case err := <-errc:
		return err
	}

	// Graceful drain mirrors sgserved: flip health/readiness to 503 so a
	// fronting balancer routes away, finish in-flight exchanges, exit.
	coord.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}
