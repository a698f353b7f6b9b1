// Command simfarmd is the sweep-farm coordinator: it accepts sweep
// submissions over HTTP/JSON, keeps an in-memory pull queue of unique run
// specs, leases jobs to simfarm-worker processes with heartbeat/expiry
// semantics, and serves every completed summary from a shared
// content-addressed corpus — its only durable state. A restarted
// coordinator starts empty; clients re-submit and finished jobs come back
// cached. See DESIGN.md's "Sweep farm" and "Farm
// security & resilience" chapters for the protocol and examples/farm for a
// walkthrough.
//
// Usage:
//
//	simfarmd -addr localhost:8344 -cache-dir .runcache
//	simfarmd -addr :8344 -tls-cert certs/server.pem -tls-key certs/server-key.pem \
//	         -tls-client-ca certs/ca.pem -token $FARM_TOKEN
//	simfarmd -routes   # print the endpoint table (used by docscheck)
//
// Exit codes follow the repo convention: 0 for a clean drain (including
// SIGINT/SIGTERM shutdown), 3 when a finished result could not be stored
// in the corpus, 1 for other errors, 2 for flag errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
)

func main() {
	addr := flag.String("addr", "localhost:8344", "address to serve the farm API on")
	cacheDir := flag.String("cache-dir", ".runcache", "shared result corpus: content-addressed summaries, the farm's only durable state")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "how long a job lease survives without a worker heartbeat before it lapses back to the queue")
	retries := flag.Int("retries", 1, "extra attempts per job after a lapsed lease, worker panic, or worker timeout before the job is marked failed")
	tlsCert := flag.String("tls-cert", "", "server TLS certificate (PEM); with -tls-key, serve HTTPS instead of plaintext")
	tlsKey := flag.String("tls-key", "", "server TLS private key (PEM)")
	tlsClientCA := flag.String("tls-client-ca", "", "CA bundle (PEM) for mutual TLS: require and verify client certificates signed by it")
	token := flag.String("token", "", "shared bearer token every request must present (Authorization: Bearer); empty disables token auth")
	routes := flag.Bool("routes", false, "print the served endpoint table and exit")
	flag.Parse()

	if *routes {
		for _, rt := range api.Routes() {
			fmt.Printf("%-4s %-22s %s\n", rt.Method, rt.Path, rt.Doc)
		}
		return
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "simfarmd: -tls-cert and -tls-key must be given together")
		os.Exit(2)
	}
	if *tlsClientCA != "" && *tlsCert == "" {
		fmt.Fprintln(os.Stderr, "simfarmd: -tls-client-ca requires -tls-cert/-tls-key")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	co, err := farm.NewCoordinator(farm.Config{
		CacheDir:  *cacheDir,
		LeaseTTL:  *leaseTTL,
		Retries:   *retries,
		Collector: sweep.New(),
		Token:     *token,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfarmd:", err)
		os.Exit(1)
	}
	co.StartExpiry(ctx, 0)

	srv := &http.Server{Addr: *addr, Handler: farm.Handler(co), ReadHeaderTimeout: 10 * time.Second}
	scheme := "http"
	if *tlsCert != "" {
		tcfg, err := farm.LoadServerTLS(*tlsCert, *tlsKey, *tlsClientCA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simfarmd:", err)
			os.Exit(1)
		}
		srv.TLSConfig = tcfg
		scheme = "https"
	}
	errc := make(chan error, 1)
	go func() {
		if srv.TLSConfig != nil {
			errc <- srv.ListenAndServeTLS("", "")
		} else {
			errc <- srv.ListenAndServe()
		}
	}()
	security := "plaintext"
	switch {
	case *tlsClientCA != "":
		security = "mTLS"
	case *tlsCert != "":
		security = "TLS"
	}
	if *token != "" {
		security += "+token"
	}
	fmt.Fprintf(os.Stderr, "[simfarmd on %s://%s (%s) — corpus %s, lease TTL %v, retries %d]\n",
		scheme, *addr, security, *cacheDir, *leaseTTL, *retries)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "simfarmd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Graceful drain: unpark long-poll leases first (workers see an empty
	// grant and ride out the restart on their retry policy), then let
	// in-flight HTTP finish. A result that could not be stored in the
	// corpus is lost to the next lifetime, so it gets the distinct exit
	// code.
	co.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
	if err := co.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "simfarmd: corpus:", err)
		os.Exit(3)
	}
}
