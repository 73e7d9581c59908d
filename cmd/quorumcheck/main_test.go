package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/farm"
)

func TestRunQuickSoak(t *testing.T) {
	err := run([]string{"-changes", "200", "-procs", "8", "-alg", "ykd"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAllAlgorithmsTinySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm soak")
	}
	err := run([]string{"-changes", "100", "-procs", "8"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{{"-alg", "nope"}, {"-bogus"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}
}

// TestSoakPrintsProgress forces a report on every interval check and
// asserts the line carries the throughput, ETA and assertion fields —
// through the same progressLine/passedLine hooks run() installs.
func TestSoakPrintsProgress(t *testing.T) {
	var buf bytes.Buffer
	f, err := algset.ByName("ykd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = campaign.Run(campaign.Config{
		Factories:     []core.Factory{f},
		Procs:         8,
		Changes:       150,
		Segment:       12,
		Rate:          1.5,
		Seed:          1,
		Chains:        1,
		ProgressEvery: time.Nanosecond,
		Progress:      func(u campaign.ProgressUpdate) { progressLine(&buf, u) },
		AlgorithmDone: func(a campaign.AlgorithmResult) { passedLine(&buf, a, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"changes/s", "assertions", "eta", "PASSED"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestProgressLineFormats pins the exact rendering: the single-chain
// format must stay byte-identical to the historical serial soak, and
// the sharded format must carry the chain coordinates.
func TestProgressLineFormats(t *testing.T) {
	u := campaign.ProgressUpdate{
		Algorithm: "ykd", Chain: 0, Chains: 1,
		Injected: 1200, Budget: 10000, Runs: 100, Formed: 95,
		Assertions: 4321, Elapsed: 2 * time.Second,
	}
	var buf bytes.Buffer
	progressLine(&buf, u)
	want := "ykd                   1200/10000 changes,    100 runs,      600 changes/s, 4321 assertions, availability  95.0% (eta 15s)\n"
	if got := buf.String(); got != want {
		t.Errorf("single-chain progress line:\n got %q\nwant %q", got, want)
	}

	buf.Reset()
	u.Chain, u.Chains = 2, 8
	progressLine(&buf, u)
	if got := buf.String(); !strings.Contains(got, "ykd              [3/8]") {
		t.Errorf("sharded progress line missing chain coordinates: %q", got)
	}

	buf.Reset()
	a := campaign.AlgorithmResult{
		Algorithm: "ykd", Changes: 10000, Runs: 834, Formed: 800,
		Assertions: 54321, Elapsed: 2500 * time.Millisecond,
	}
	passedLine(&buf, a, 1)
	want = "ykd              PASSED: 10000 changes across 834 cascading runs, 54321 checker assertions, zero violations (2.5s)\n"
	if got := buf.String(); got != want {
		t.Errorf("single-chain PASSED line:\n got %q\nwant %q", got, want)
	}

	buf.Reset()
	passedLine(&buf, a, 8)
	if got := buf.String(); !strings.Contains(got, "across 10000 changes") && !strings.Contains(got, "8 chains") {
		t.Errorf("sharded PASSED line missing chain count: %q", got)
	}
}

// TestNaiveViolationDumpsTrace: the known-broken strawman must trip
// the checker, and the error must carry the trace ring buffer's dump.
// Seed 29 at these parameters violates within a few cascading runs of
// the single-chain (historical) campaign.
func TestNaiveViolationDumpsTrace(t *testing.T) {
	err := run([]string{"-alg", "naive", "-procs", "8", "-changes", "500",
		"-segment", "10", "-rate", "1", "-seed", "29", "-chains", "1", "-workers", "1"})
	if err == nil {
		t.Fatal("the naive strawman passed the soak — the checker is broken")
	}
	msg := err.Error()
	if !strings.Contains(msg, "INCONSISTENCY") {
		t.Errorf("error does not flag the inconsistency: %.200s", msg)
	}
	if !strings.Contains(msg, "--- trace") || !strings.Contains(msg, "change") {
		t.Errorf("error does not dump the trace history: %.200s", msg)
	}
	if ce, ok := violationTrace(err); !ok {
		t.Errorf("violation is not a campaign.ChainError: %T", err)
	} else if ce.Algorithm != "naive-no-agreement" {
		t.Errorf("ChainError.Algorithm = %q, want naive-no-agreement", ce.Algorithm)
	}
}

// TestJSONReport: a campaign run with -json writes a report CI can
// parse, even (especially) when the campaign ends in a violation. It
// carries the shared report header, and its worker count is the
// workers the campaign could use: never more than its jobs.
func TestJSONReport(t *testing.T) {
	path := t.TempDir() + "/campaign.json"
	err := run([]string{"-alg", "naive", "-procs", "8", "-changes", "500",
		"-segment", "10", "-rate", "1", "-seed", "29", "-chains", "1", "-workers", "1",
		"-json", path})
	if err == nil {
		t.Fatal("the naive strawman passed the soak")
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, want := range []string{`"tool": "quorumcheck"`, `"violation"`, `naive-no-agreement`,
		`"wall_seconds"`, `"requeued"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %s:\n%.400s", want, data)
		}
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if h := rep.ReportHeader; h.Tool != "quorumcheck" || h.GeneratedAt.IsZero() || h.Seed != 29 || h.WallSeconds <= 0 {
		t.Errorf("report header not filled in: %+v", h)
	}

	one := t.TempDir() + "/one.json"
	if err := run([]string{"-alg", "ykd", "-procs", "8", "-changes", "100", "-chains", "1",
		"-workers", "4", "-progress", "0", "-json", one}); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(one); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"workers": 1,`) {
		t.Errorf("a one-job campaign reports more than one worker:\n%.400s", data)
	}
}

// TestRunFarmCoordinator drives the -farm-listen CLI path end to end
// with an in-process worker (the -farm-workers subprocess spawn needs
// a real binary, which `go test` is not): the report must come out in
// the same shape as a local run, tagged with the farm tool name.
func TestRunFarmCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	// Reserve a port, free it, and hand it to the CLI — run() prints
	// the bound address to stdout, which this test cannot read.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	path := t.TempDir() + "/farm.json"
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-changes", "200", "-procs", "8", "-alg", "ykd",
			"-chains", "4", "-progress", "0", "-farm-listen", addr, "-json", path})
	}()

	// Join as a worker once the coordinator is up.
	var w *farm.Worker
	deadline := time.Now().Add(10 * time.Second)
	for {
		w, err = farm.Join(farm.WorkerConfig{Addr: addr, Capacity: 2})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never reached the coordinator: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if serr := w.Serve(); serr != nil {
		t.Errorf("worker serve: %v", serr)
	}
	if rerr := <-done; rerr != nil {
		t.Fatalf("farm coordinator run: %v", rerr)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tool": "quorumcheck-farm"`, `"workers": 1`,
		`"wall_seconds"`, `"requeued"`, `"algorithm": "ykd"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("farm JSON report missing %s:\n%.400s", want, data)
		}
	}
}
