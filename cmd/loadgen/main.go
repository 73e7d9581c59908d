// Command loadgen is the closed-loop load harness for the live path:
// it boots (or connects to) a replicated-store cluster, drives it with
// N concurrent client connections at a target rate, and reports
// throughput, latency quantiles, per-peer wire traffic and — when a
// partition is injected mid-run — the measured time from injection to
// primary recovery.
//
// In-process mode (default) runs the full stack over real TCP
// sockets on localhost: TCPTransport, instrumented per-peer, driving
// register.Store replicas behind loadgen servers:
//
//	loadgen -inproc 3 -conns 8 -duration 5s -partition 2s -json -
//
// Against an external cluster (replicateddb -serve on each host):
//
//	loadgen -connect host1:7001,host2:7001 -rate 500 -duration 30s
//
// With -http the harness exposes the shared metrics registry
// (Prometheus text) while the run is in flight, including the
// per-peer gcs_peer_p<ID>_* series and loadgen_request_seconds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/gcs"
	"dynvote/internal/loadgen"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/register"
)

func main() {
	raiseFDLimit()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	inproc    int
	connect   string
	alg       string
	conns     int
	pipeline  int
	rate      float64
	duration  time.Duration
	keys      int
	writes    float64
	seed      int64
	partition time.Duration
	heal      time.Duration
	latency   time.Duration
	jitter    time.Duration
	drop      float64
	heartbeat time.Duration
	httpAddr  string
	jsonOut   string
	smoke     bool
	quiet     bool
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.IntVar(&o.inproc, "inproc", 3, "size of the in-process TCP cluster (ignored with -connect)")
	fs.StringVar(&o.connect, "connect", "", "comma-separated addresses of an external cluster (replicateddb -serve)")
	fs.StringVar(&o.alg, "alg", "ykd", "primary component algorithm for the in-process cluster")
	fs.IntVar(&o.conns, "conns", 4, "concurrent client connections (scales into the thousands)")
	fs.IntVar(&o.pipeline, "pipeline", 1, "requests kept in flight per connection (1 = classic closed loop)")
	fs.Float64Var(&o.rate, "rate", 0, "target aggregate request rate in req/s (0 = unpaced)")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "run length")
	fs.IntVar(&o.keys, "keys", 64, "key-space size")
	fs.Float64Var(&o.writes, "writes", 0.5, "fraction of requests that are writes")
	fs.Int64Var(&o.seed, "seed", 1, "op-mix seed")
	fs.DurationVar(&o.partition, "partition", 0, "inject a partition this far into the run (0 = none; in-process only)")
	fs.DurationVar(&o.heal, "heal", 0, "heal the partition this far into the run (default: halfway between injection and the end)")
	fs.DurationVar(&o.latency, "latency", 0, "injected per-frame latency on every in-process transport")
	fs.DurationVar(&o.jitter, "jitter", 0, "injected latency jitter")
	fs.Float64Var(&o.drop, "drop", 0, "injected frame drop probability [0,1]")
	fs.DurationVar(&o.heartbeat, "heartbeat", 20*time.Millisecond, "in-process transport heartbeat period")
	fs.StringVar(&o.httpAddr, "http", "", "serve the metrics registry on this address while running")
	fs.StringVar(&o.jsonOut, "json", "", `write the run report as JSON to this file ("-" = stdout)`)
	fs.BoolVar(&o.smoke, "smoke", false, "assert the run measured real work; exit non-zero otherwise")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress lines")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.pipeline < 1 {
		return o, errors.New("-pipeline must be >= 1")
	}
	if o.connect != "" && o.partition > 0 {
		return o, errors.New("-partition needs the in-process cluster (no transport hooks into an external one)")
	}
	if o.partition > 0 && o.partition >= o.duration {
		return o, errors.New("-partition must fall inside -duration")
	}
	if o.heal > 0 && (o.partition == 0 || o.heal <= o.partition || o.heal >= o.duration) {
		return o, errors.New("-heal must fall between -partition and -duration")
	}
	if o.partition > 0 && o.heal == 0 {
		o.heal = o.partition + (o.duration-o.partition)/2
	}
	return o, nil
}

// cluster is the in-process test subject: TCP transports wrapped with
// instrumentation, store replicas, and a client-facing server each.
type cluster struct {
	n       int
	tcp     []*gcs.TCPTransport
	wrapped []*gcs.InstrumentedTransport
	stores  []*register.Store
	servers []*loadgen.Server
	addrs   []string
}

func startCluster(o options, reg *metrics.Registry, tl *gcs.Timeline) (*cluster, error) {
	factory, err := algset.ByName(o.alg)
	if err != nil {
		return nil, err
	}
	n := o.inproc
	if n < 1 {
		return nil, fmt.Errorf("cluster size %d", n)
	}
	c := &cluster{n: n}
	fp := gcs.FaultProfile{Latency: o.latency, Jitter: o.jitter, DropRate: o.drop, Seed: o.seed}
	addrs := make(map[proc.ID]string, n)
	for i := 0; i < n; i++ {
		tr, err := gcs.NewTCPTransport(gcs.TCPConfig{
			ID:             proc.ID(i),
			OwnAddr:        "127.0.0.1:0",
			HeartbeatEvery: o.heartbeat,
			Metrics:        reg,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.tcp = append(c.tcp, tr)
		addrs[proc.ID(i)] = tr.Addr()
	}
	for _, tr := range c.tcp {
		tr.SetPeers(addrs)
	}
	for i := 0; i < n; i++ {
		id := proc.ID(i)
		w := gcs.InstrumentTransport(c.tcp[i], id, reg, fp)
		c.wrapped = append(c.wrapped, w)
		st, err := register.Open(register.Config{
			ID: id, N: n,
			Transport: w,
			Algorithm: factory,
			OnEvent:   tl.Hook(id),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.stores = append(c.stores, st)
		srv, err := loadgen.NewServer(st, "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	// Stopping a node does not close its transport; closing a wrapped
	// transport closes the TCP transport underneath it. Bare TCP
	// transports remain only after a partial startup.
	for _, w := range c.wrapped {
		_ = w.Close()
	}
	for i, tr := range c.tcp {
		if i >= len(c.wrapped) {
			_ = tr.Close()
		}
	}
}

func (c *cluster) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, st := range c.stores {
			if !st.InPrimary() || st.Node().CurrentView().Size() != c.n {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster never converged to a full primary view of %d", c.n)
}

// split is the injected partition: a majority component and the rest.
func (c *cluster) split() (maj, min []proc.ID) {
	cut := c.n/2 + 1
	for i := 0; i < c.n; i++ {
		if i < cut {
			maj = append(maj, proc.ID(i))
		} else {
			min = append(min, proc.ID(i))
		}
	}
	return maj, min
}

func (c *cluster) partition() {
	maj, min := c.split()
	for _, id := range maj {
		c.tcp[id].Block(min...)
	}
	for _, id := range min {
		c.tcp[id].Block(maj...)
	}
}

func (c *cluster) healAll() {
	for _, tr := range c.tcp {
		tr.Block()
	}
}

func serveMetrics(addr string, reg *metrics.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	// A report on stdout must stay pure JSON: move prose to stderr.
	prose := stdout
	if o.jsonOut == "-" {
		prose = stderr
	}

	reg := metrics.NewRegistry()
	tl := gcs.NewTimeline()
	var (
		addrs []string
		cl    *cluster
	)
	if o.connect != "" {
		addrs = strings.Split(o.connect, ",")
	} else {
		cl, err = startCluster(o, reg, tl)
		if err != nil {
			return err
		}
		defer cl.close()
		if err := cl.converge(10 * time.Second); err != nil {
			return err
		}
		addrs = cl.addrs
		fmt.Fprintf(prose, "loadgen: %d-node %s cluster converged (%s)\n",
			cl.n, o.alg, strings.Join(addrs, " "))
	}
	if o.httpAddr != "" {
		bound, err := serveMetrics(o.httpAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(prose, "loadgen: metrics on http://%s/metrics\n", bound)
	}

	// The schedule runs beside the load; its completion gates the reads
	// of injectedAt/healedAt after the run.
	start := time.Now()
	var injectedAt, healedAt time.Time
	scheduled := make(chan struct{})
	go func() {
		defer close(scheduled)
		injectedAt, healedAt = schedule(o, cl, reg, start, prose)
	}()

	res, runErr := loadgen.Run(loadgen.Config{
		Addrs:         addrs,
		Conns:         o.conns,
		Pipeline:      o.pipeline,
		Rate:          o.rate,
		Duration:      o.duration,
		Keys:          o.keys,
		WriteFraction: o.writes,
		Seed:          o.seed,
		Registry:      reg,
	})
	<-scheduled
	if runErr != nil {
		return runErr
	}

	rep := &loadgen.Report{
		ReportHeader: metrics.ReportHeader{Tool: "loadgen", Seed: o.seed},
		Alg:          o.alg,
		Conns:        o.conns,
		Pipeline:     o.pipeline,
		RateRPS:      o.rate,
		Result:       res,
	}
	if cl != nil {
		rep.Nodes = cl.n
		for node, w := range cl.wrapped {
			for _, ps := range w.Peers() {
				rep.Peers = append(rep.Peers, loadgen.PeerWireReport{
					Node:       node,
					Peer:       int(ps.Peer),
					MsgsOut:    ps.MsgsOut,
					BytesOut:   ps.BytesOut,
					MsgsIn:     ps.MsgsIn,
					BytesIn:    ps.BytesIn,
					Dropped:    ps.Dropped,
					SendMeanMs: float64(ps.Send.Mean()) / float64(time.Millisecond),
					SendMaxMs:  float64(ps.Send.Max) / float64(time.Millisecond),
				})
			}
		}
	}
	if o.partition > 0 {
		f := &loadgen.FailoverReport{
			InjectedAtSec:  injectedAt.Sub(start).Seconds(),
			HealedAtSec:    healedAt.Sub(start).Seconds(),
			ViewsProposed:  tl.CountKind(gcs.EventViewProposed),
			ViewsInstalled: tl.CountKind(gcs.EventView),
		}
		if lost, regained, ok := tl.Recovery(injectedAt); ok {
			f.PrimaryLostMs = float64(lost) / float64(time.Millisecond)
			f.RecoveryMs = float64(regained) / float64(time.Millisecond)
		}
		if _, minority := cl.split(); len(minority) > 0 {
			if rejoin, ok := tl.Rejoin(minority[0], healedAt); ok {
				f.RejoinMs = float64(rejoin) / float64(time.Millisecond)
			}
		}
		if s := strings.TrimRight(tl.String(), "\n"); s != "" {
			f.Timeline = strings.Split(s, "\n")
		}
		rep.Failover = f
	}

	rep.Finish(start, nil)
	printSummary(prose, rep)
	switch o.jsonOut {
	case "":
	case "-": // the report alone on stdout; the prose went to stderr
		err = metrics.WriteReport(stdout, rep)
	default:
		err = metrics.WriteReportFile(o.jsonOut, rep)
	}
	if err != nil {
		return err
	}
	if o.smoke {
		return smokeCheck(rep, o)
	}
	return nil
}

// schedule owns the prose while the load runs: a progress line every
// second from the registry's loadgen counters (unless -q), and the
// partition injected and healed on time. It returns when the run ends,
// never before the heal, with when the partition was injected and
// healed.
func schedule(o options, cl *cluster, reg *metrics.Registry, start time.Time, prose io.Writer) (injectedAt, healedAt time.Time) {
	say := func(line string) {
		if !o.quiet {
			fmt.Fprintf(prose, "loadgen: t=%4.1fs %s\n", time.Since(start).Seconds(), line)
		}
	}
	count := func(name string) int64 { return reg.Counter(name, "").Value() }
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var inject, heal <-chan time.Time
	if o.partition > 0 {
		inject = time.After(time.Until(start.Add(o.partition)))
	}
	end := time.After(time.Until(start.Add(o.duration)))
	for {
		var ended <-chan time.Time
		if inject == nil && heal == nil {
			ended = end
		}
		select {
		case <-tick.C:
			reqs := count("loadgen_requests_total")
			say(fmt.Sprintf("reqs=%d ok=%d notPrimary=%d errs=%d rate=%.0f/s", reqs, count("loadgen_ok_total"),
				count("loadgen_not_primary_total"), count("loadgen_errors_total"), float64(reqs)/time.Since(start).Seconds()))
		case <-inject:
			cl.partition()
			injectedAt = time.Now()
			say(fmt.Sprintf("partition injected (%v into run)", o.partition))
			inject, heal = nil, time.After(time.Until(start.Add(o.heal)))
		case <-heal:
			cl.healAll()
			healedAt = time.Now()
			say("partition healed")
			heal = nil
		case <-ended:
			return injectedAt, healedAt
		}
	}
}

func printSummary(w io.Writer, rep *loadgen.Report) {
	r := rep.Result
	fmt.Fprintf(w, "\nloadgen: %d requests in %.1fs → %.0f req/s (ok=%d notFound=%d notPrimary=%d errs=%d redials=%d)\n",
		r.Requests, r.DurationSec, r.ThroughputRPS, r.OK, r.NotFound, r.NotPrimary, r.Errors, r.Redials)
	l := r.Latency
	fmt.Fprintf(w, "loadgen: latency ms min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		l.MinMs, l.P50Ms, l.P95Ms, l.P99Ms, l.MaxMs)
	if f := rep.Failover; f != nil {
		if f.RecoveryMs > 0 {
			rejoin := "cut-off replica never rejoined"
			if f.RejoinMs > 0 {
				rejoin = fmt.Sprintf("cut-off replica rejoined %.2fms after the heal", f.RejoinMs)
			}
			fmt.Fprintf(w, "loadgen: failover injected@%.2fs healed@%.2fs → primary lost after %.2fms, recovered after %.2fms, %s (%d views proposed, %d installed)\n",
				f.InjectedAtSec, f.HealedAtSec, f.PrimaryLostMs, f.RecoveryMs, rejoin, f.ViewsProposed, f.ViewsInstalled)
		} else {
			fmt.Fprintf(w, "loadgen: failover injected@%.2fs but no recovery measured (%d views proposed, %d installed)\n",
				f.InjectedAtSec, f.ViewsProposed, f.ViewsInstalled)
		}
	}
	var msgs, bytes int64
	for _, p := range rep.Peers {
		msgs += p.MsgsOut
		bytes += p.BytesOut
	}
	if len(rep.Peers) > 0 {
		fmt.Fprintf(w, "loadgen: wire total %d msgs / %d bytes across %d peer links\n",
			msgs, bytes, len(rep.Peers))
	}
}

// smokeCheck is the CI gate: the run must have done real work, and an
// injected partition must have produced a measured recovery.
func smokeCheck(rep *loadgen.Report, o options) error {
	r := rep.Result
	if r.Requests == 0 || r.OK == 0 {
		return fmt.Errorf("smoke: no successful requests (requests=%d ok=%d errs=%d)", r.Requests, r.OK, r.Errors)
	}
	if r.ThroughputRPS <= 0 {
		return fmt.Errorf("smoke: throughput %.2f req/s", r.ThroughputRPS)
	}
	if r.Latency.P50Ms <= 0 || r.Latency.P99Ms < r.Latency.P50Ms {
		return fmt.Errorf("smoke: latency quantiles implausible: %+v", r.Latency)
	}
	if o.partition > 0 {
		f := rep.Failover
		if f == nil || f.RecoveryMs <= 0 {
			return errors.New("smoke: partition injected but no primary recovery measured")
		}
		if f.ViewsInstalled == 0 {
			return errors.New("smoke: partition injected but no view changes recorded")
		}
	}
	if len(rep.Peers) == 0 && o.connect == "" {
		return errors.New("smoke: no per-peer wire stats collected")
	}
	return nil
}
