// Command quorumcheck is the repository's trial-by-fire (thesis §2.2):
// it subjects every algorithm to a long cascading stream of randomized
// connectivity changes with the safety checker enabled after every
// message round — at most one primary component may ever be declared,
// and stable views must agree internally. The thesis ran over
// 1,310,000 connectivity changes without an inconsistency; this
// command reproduces that campaign at any scale.
//
// The change budget is sharded into independent cascading chains per
// algorithm (see internal/campaign), so the campaign saturates the
// machine: -chains controls the shard count, -workers the concurrency.
// Results are bit-identical for a given (seed, chains) regardless of
// worker count, and `-chains 1 -workers 1` replays the historical
// serial soak exactly.
//
// The campaign also farms out across processes — and machines — via
// internal/farm: `-farm-listen` turns this process into the
// coordinator (add `-farm-workers N` to spawn N local worker
// processes), `-farm-join` turns it into a worker for a coordinator
// elsewhere. The merged result and report are bit-identical to a local
// run. SIGINT drains gracefully in every mode: in-flight chains
// finish, the partial report is written with `"aborted": true`.
//
// Examples:
//
//	quorumcheck -changes 10000                # quick soak, all algorithms
//	quorumcheck -changes 1310000 -alg ykd     # the full thesis count
//	quorumcheck -chains 1 -workers 1          # the historical serial soak
//	quorumcheck -json campaign.json           # machine-readable report for CI
//	quorumcheck -farm-listen :9131 -farm-workers 3   # coordinator + 3 local worker processes
//	quorumcheck -farm-join host:9131                 # remote worker joining that farm
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/farm"
	"dynvote/internal/metrics"
	"dynvote/internal/naive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "quorumcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("quorumcheck", flag.ContinueOnError)
	var (
		changes = fs.Int("changes", 100000, "total connectivity changes per algorithm")
		procs   = fs.Int("procs", 64, "number of processes")
		segment = fs.Int("segment", 12, "changes per run segment (runs cascade, healing between)")
		rate    = fs.Float64("rate", 1.5, "mean message rounds between changes")
		seed    = fs.Int64("seed", 20000505, "random seed")
		algName = fs.String("alg", "", `single algorithm (default: all; "naive" runs the known-broken strawman to validate the checker)`)
		every   = fs.Duration("progress", 10*time.Second, "progress report interval per chain (0 disables)")
		retain  = fs.Int("trace", 4096, "trace ring capacity dumped on a violation, attached only to the replay of a failed chain (0 disables)")
		chains  = fs.Int("chains", 8, "independent cascading chains per algorithm (1 replays the historical serial soak)")
		workers = fs.Int("workers", 0, "concurrent workers scheduling chains (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut = fs.String("json", "", "write a machine-readable campaign report to this file")

		farmListen    = fs.String("farm-listen", "", "run as farm coordinator: listen for workers on this TCP address (port 0 picks one)")
		farmWorkers   = fs.Int("farm-workers", 0, "with -farm-listen: spawn this many local worker processes")
		farmJoin      = fs.String("farm-join", "", "run as farm worker: join the coordinator at this TCP address")
		farmStraggler = fs.Duration("farm-straggler", 30*time.Second, "re-issue a chain held longer than this once no fresh work remains (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *farmJoin != "" {
		return farmWorkerMain(*farmJoin, *workers)
	}

	factories := algset.All()
	if *algName != "" {
		// The naive strawman is deliberately outside the campaign set:
		// it exists to prove the checker catches real violations.
		if *algName == "naive" {
			factories = []core.Factory{naive.Factory()}
		} else {
			f, err := algset.ByName(*algName)
			if err != nil {
				return err
			}
			factories = []core.Factory{f}
		}
	}

	experiment.SetParallelism(*workers)

	// Every progress and PASSED line fires under the campaign's merge
	// lock (the farm's progress lines too), so they share os.Stdout
	// unlocked. The SIGINT notices are single writes, which an *os.File
	// never interleaves.
	cfg := campaign.Config{
		Factories:     factories,
		Procs:         *procs,
		Changes:       *changes,
		Segment:       *segment,
		Rate:          *rate,
		Seed:          *seed,
		Chains:        *chains,
		TraceRetain:   *retain,
		ProgressEvery: *every,
		Progress:      func(u campaign.ProgressUpdate) { progressLine(os.Stdout, u) },
		AlgorithmDone: func(a campaign.AlgorithmResult) { passedLine(os.Stdout, a, *chains) },
	}

	var (
		tool = "quorumcheck"
		res  *campaign.Result
		err  error
	)
	if *farmListen != "" {
		tool = "quorumcheck-farm"
		res, err = farmCoordinatorMain(cfg, *farmListen, *farmStraggler, *farmWorkers, *workers)
		if res == nil {
			return err
		}
	} else {
		// SIGINT drains the local campaign gracefully: in-flight chains
		// finish their current run, the merged partial report is marked
		// aborted.
		cfg.Abort = new(atomic.Bool)
		stopSignals := onInterrupt(func() {
			fmt.Println("interrupt: draining — finishing in-flight chains")
			cfg.Abort.Store(true)
		})
		defer stopSignals()
		res, err = campaign.Run(cfg)
	}

	if *jsonOut != "" {
		report := campaign.NewReport(tool, cfg, res, res.Workers, err)
		if werr := metrics.WriteReportFile(*jsonOut, report); werr != nil {
			if err == nil {
				return werr
			}
			fmt.Fprintln(os.Stderr, "quorumcheck:", werr)
		}
	}
	if err != nil {
		return err
	}
	if res.Aborted {
		fmt.Println("\nABORTED: campaign drained early; the report covers the completed prefix only.")
		return nil
	}
	// Per-algorithm PASSED lines already printed via cfg.AlgorithmDone,
	// which the farm coordinator fires exactly like a local campaign.
	fmt.Println("\nALL CLEAR: no inconsistency, ever — at most one primary component at all times.")
	return nil
}

// onInterrupt runs f once on the first SIGINT/SIGTERM; the returned
// stop function detaches the handler (later signals kill the process
// normally, so a second ^C always works).
func onInterrupt(f func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-ch; ok {
			signal.Stop(ch)
			f()
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// farmWorkerMain is the `-farm-join` mode: execute chains for a remote
// coordinator until the campaign ends or SIGINT drains this worker.
func farmWorkerMain(addr string, capacity int) error {
	w, err := farm.Join(farm.WorkerConfig{Addr: addr, Capacity: capacity})
	if err != nil {
		return err
	}
	stopSignals := onInterrupt(func() {
		fmt.Fprintln(os.Stderr, "quorumcheck: interrupt: draining worker — finishing assigned chains")
		w.Drain()
	})
	defer stopSignals()
	return w.Serve()
}

// farmCoordinatorMain is the `-farm-listen` mode: dispatch the
// campaign's chains, optionally to spawn local worker processes of
// the given capacity, and return the merged result, its Workers set
// to the peak worker count. A nil result means the farm never started.
func farmCoordinatorMain(cfg campaign.Config, listen string, straggler time.Duration,
	spawn, capacity int) (*campaign.Result, error) {
	c, err := farm.NewCoordinator(farm.CoordinatorConfig{
		Campaign:       cfg,
		Listen:         listen,
		StragglerAfter: straggler,
		Progress: func(u farm.Update) {
			fmt.Printf("%-16s %4d/%d chains merged, %d requeued, %d workers (%.0fs)\n",
				"farm", u.Done, u.Total, u.Requeued, u.Workers, u.Elapsed.Seconds())
		},
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("farm coordinator listening on %s\n", c.Addr())

	procs, err := spawnLocalWorkers(spawn, c.Addr(), capacity)
	if err != nil {
		c.Close()
		return nil, err
	}

	stopSignals := onInterrupt(func() {
		fmt.Println("interrupt: draining farm — workers finish in-flight chains")
		c.Drain()
	})
	defer stopSignals()

	res, ferr := c.Run()
	_, peak := c.Workers()
	for _, p := range procs {
		// Workers exit cleanly when the coordinator closes their
		// connection; a worker that died early already had its chains
		// requeued, so its exit status is informational.
		if werr := p.Wait(); werr != nil {
			fmt.Fprintln(os.Stderr, "quorumcheck: worker process:", werr)
		}
	}
	if res != nil {
		res.Workers = peak
	}
	return res, ferr
}

// spawnLocalWorkers launches n copies of this binary in -farm-join
// mode, pointed at addr. Their output goes to stderr so the
// coordinator's report stream stays clean.
func spawnLocalWorkers(n int, addr string, capacity int) ([]*exec.Cmd, error) {
	if n <= 0 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot locate own binary to spawn workers: %w", err)
	}
	procs := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		args := []string{"-farm-join", addr}
		if capacity > 0 {
			args = append(args, "-workers", strconv.Itoa(capacity))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
			return nil, fmt.Errorf("spawn worker: %w", err)
		}
		procs = append(procs, cmd)
	}
	return procs, nil
}

// progressLine renders one chain's progress. The single-chain format is
// byte-identical to the historical serial soak; sharded campaigns add
// the chain coordinates after the algorithm name.
func progressLine(w io.Writer, u campaign.ProgressUpdate) {
	elapsed := u.Elapsed.Seconds()
	throughput := float64(u.Injected) / elapsed
	eta := time.Duration(float64(u.Budget-u.Injected) / throughput * float64(time.Second))
	availability := 0.0
	if u.Runs > 0 {
		availability = 100 * float64(u.Formed) / float64(u.Runs)
	}
	if u.Chains == 1 {
		fmt.Fprintf(w, "%-16s %9d/%d changes, %6d runs, %8.0f changes/s, %d assertions, availability %5.1f%% (eta %s)\n",
			u.Algorithm, u.Injected, u.Budget, u.Runs, throughput, u.Assertions,
			availability, eta.Round(time.Second))
		return
	}
	fmt.Fprintf(w, "%-16s [%d/%d] %9d/%d changes, %6d runs, %8.0f changes/s, %d assertions, availability %5.1f%% (eta %s)\n",
		u.Algorithm, u.Chain+1, u.Chains, u.Injected, u.Budget, u.Runs, throughput,
		u.Assertions, availability, eta.Round(time.Second))
}

// passedLine renders an algorithm's merged verdict once its last chain
// completes cleanly. Single-chain campaigns reproduce the historical
// line exactly.
func passedLine(w io.Writer, a campaign.AlgorithmResult, chains int) {
	if chains == 1 {
		fmt.Fprintf(w, "%-16s PASSED: %d changes across %d cascading runs, %d checker assertions, zero violations (%.1fs)\n",
			a.Algorithm, a.Changes, a.Runs, a.Assertions, a.Elapsed.Seconds())
		return
	}
	fmt.Fprintf(w, "%-16s PASSED: %d changes across %d chains, %d cascading runs, %d checker assertions, zero violations (%.1fs)\n",
		a.Algorithm, a.Changes, chains, a.Runs, a.Assertions, a.Elapsed.Seconds())
}

// violationTrace digs the first chain failure out of a campaign result;
// used by tests to assert the trace dump survives the campaign wrapping.
func violationTrace(err error) (*campaign.ChainError, bool) {
	var ce *campaign.ChainError
	ok := errors.As(err, &ce)
	return ce, ok
}
