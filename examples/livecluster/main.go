// Livecluster runs the YKD dynamic voting algorithm over real TCP
// connections on localhost: five nodes, heartbeat failure detection, a
// partition injected at the transport layer, and recovery — the same
// algorithm code that runs in the simulator, now on actual sockets.
//
// With -http the demo also exposes live introspection while it runs:
//
//	/metrics      cluster-wide counters, Prometheus text format
//	/debug/vars   the same registry as expvar JSON
//	/debug/pprof  the standard Go profiler endpoints
//
// Try: livecluster -http 127.0.0.1:8080 -linger 60s, then
// curl http://127.0.0.1:8080/metrics.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"dynvote/internal/gcs"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/ykd"
)

func main() {
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	linger := flag.Duration("linger", 0, "keep the cluster (and the HTTP endpoint) alive this long after the demo")
	flag.Parse()
	if err := run(*httpAddr, *linger); err != nil {
		fmt.Fprintln(os.Stderr, "livecluster:", err)
		os.Exit(1)
	}
}

var expvarOnce sync.Once

// serveDebug starts the introspection endpoint and returns its bound
// address. The registry backs both /metrics (Prometheus text) and
// /debug/vars (expvar JSON); pprof is registered explicitly because
// the demo uses its own mux, not http.DefaultServeMux.
func serveDebug(addr string, reg *metrics.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	// expvar.Publish panics on re-registration, so the snapshot var is
	// registered once per process even if serveDebug runs again.
	expvarOnce.Do(func() {
		expvar.Publish("dynvote", expvar.Func(func() any { return reg.Snapshot() }))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

func run(httpAddr string, linger time.Duration) error {
	const n = 5
	reg := metrics.NewRegistry()
	if httpAddr != "" {
		bound, err := serveDebug(httpAddr, reg)
		if err != nil {
			return err
		}
		fmt.Printf("introspection on http://%s/metrics (also /debug/vars, /debug/pprof)\n", bound)
	}

	transports := make([]*gcs.TCPTransport, n)
	addrs := make(map[proc.ID]string, n)
	for i := 0; i < n; i++ {
		tr, err := gcs.NewTCPTransport(gcs.TCPConfig{
			ID:             proc.ID(i),
			OwnAddr:        "127.0.0.1:0",
			HeartbeatEvery: 25 * time.Millisecond,
			Metrics:        reg,
		})
		if err != nil {
			return err
		}
		transports[i] = tr
		addrs[proc.ID(i)] = tr.Addr()
	}
	for _, tr := range transports {
		tr.SetPeers(addrs)
	}

	// Each transport is wrapped with the instrumented layer (per-peer
	// message/byte counters and send-latency histograms on /metrics),
	// and every node feeds the shared failover timeline, so the
	// partition below gets a measured time-to-primary-recovery.
	tl := gcs.NewTimeline()
	wrapped := make([]*gcs.InstrumentedTransport, n)
	nodes := make([]*gcs.Node, n)
	for i := 0; i < n; i++ {
		wrapped[i] = gcs.InstrumentTransport(transports[i], proc.ID(i), reg, gcs.FaultProfile{})
		node, err := gcs.NewNode(gcs.Config{
			ID: proc.ID(i), N: n,
			Transport: wrapped[i],
			Algorithm: ykd.Factory(ykd.VariantYKD),
			Metrics:   reg,
			OnEvent:   tl.Hook(proc.ID(i)),
		})
		if err != nil {
			return err
		}
		node.Run()
		nodes[i] = node
		defer node.Stop()
	}

	report := func(stage string) {
		fmt.Printf("%-42s", stage)
		for i, nd := range nodes {
			mark := "."
			if nd.InPrimary() {
				mark = "P"
			}
			fmt.Printf(" n%d=%s", i, mark)
		}
		fmt.Println()
	}
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		return fmt.Errorf("timed out waiting for %s", what)
	}

	for i := 0; i < n; i++ {
		fmt.Printf("n%d listening on %s\n", i, transports[i].Addr())
	}
	fmt.Println()

	if err := waitFor("cluster convergence", func() bool {
		for _, nd := range nodes {
			if !nd.InPrimary() || nd.CurrentView().Size() != n {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	report("all five connected over TCP:")

	fmt.Println("\ninjecting partition {n0,n1,n2} | {n3,n4} at the transport layer")
	injectedAt := time.Now()
	for i := 0; i < 3; i++ {
		transports[i].Block(3, 4)
	}
	transports[3].Block(0, 1, 2)
	transports[4].Block(0, 1, 2)

	if err := waitFor("partition detection + re-formation", func() bool {
		return nodes[0].InPrimary() && nodes[1].InPrimary() && nodes[2].InPrimary() &&
			!nodes[3].InPrimary() && !nodes[4].InPrimary()
	}); err != nil {
		return err
	}
	report("heartbeats timed out; YKD re-formed:")
	if lost, regained, ok := tl.Recovery(injectedAt); ok {
		fmt.Printf("  primary lost %.1fms after injection, recovered after %.1fms\n",
			float64(lost)/float64(time.Millisecond), float64(regained)/float64(time.Millisecond))
	}

	fmt.Println("\nhealing the partition")
	for i := 0; i < n; i++ {
		transports[i].Block()
	}
	healedAt := time.Now()
	if err := waitFor("merge", func() bool {
		for _, nd := range nodes {
			if !nd.InPrimary() {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	report("merged back; everyone primary again:")
	if rejoin, ok := tl.Rejoin(3, healedAt); ok {
		fmt.Printf("  n3 rejoined the primary %.1fms after the heal\n", float64(rejoin)/float64(time.Millisecond))
	}

	var msgs, bytes int64
	for _, w := range wrapped {
		for _, ps := range w.Peers() {
			msgs += ps.MsgsOut
			bytes += ps.BytesOut
		}
	}
	fmt.Printf("\nwire traffic: %d msgs / %d bytes across %d links (%d timeline events; per-peer series on /metrics)\n",
		msgs, bytes, n*(n-1), tl.Len())

	if linger > 0 {
		fmt.Printf("\nlingering %s — scrape /metrics or grab a profile now\n", linger)
		time.Sleep(linger)
	}
	return nil
}
