package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"dynvote/internal/loadgen"
)

// TestSmokeRunWithPartition is the full acceptance path in miniature:
// an in-process 3-node TCP cluster, a mid-run partition and heal, the
// -smoke assertions, and a machine-readable report on stdout.
func TestSmokeRunWithPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("full live-cluster run")
	}
	var out, errs bytes.Buffer
	err := run([]string{
		"-inproc", "3",
		"-conns", "4",
		"-duration", "2500ms",
		"-partition", "700ms",
		"-heal", "1700ms",
		"-json", "-",
		"-smoke",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}

	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out.String())
	}
	if rep.Tool != "loadgen" || rep.Nodes != 3 {
		t.Errorf("report header: %+v", rep)
	}
	if h := rep.ReportHeader; h.GeneratedAt.IsZero() || h.Seed != 1 || h.WallSeconds < 2.5 {
		t.Errorf("shared report header not filled in: %+v", h)
	}
	if rep.Result.Requests == 0 || rep.Result.OK == 0 {
		t.Errorf("no work measured: %+v", rep.Result)
	}
	if rep.Failover == nil || rep.Failover.RecoveryMs <= 0 {
		t.Fatalf("no failover measured: %+v", rep.Failover)
	}
	if rep.Failover.PrimaryLostMs > rep.Failover.RecoveryMs {
		t.Errorf("lost after recovery? %+v", rep.Failover)
	}
	if rep.Failover.RejoinMs <= 0 || !strings.Contains(errs.String(), "cut-off replica rejoined") {
		t.Errorf("cut-off replica's rejoin not reported: %+v\n%s", rep.Failover, errs.String())
	}
	if len(rep.Peers) == 0 {
		t.Error("no per-peer wire stats in report")
	}
	if !strings.Contains(errs.String(), "partition injected") {
		t.Errorf("prose missing fault schedule:\n%s", errs.String())
	}
}

// TestJSONStdoutIsPure: with -json -, stdout must decode as exactly
// one JSON document with nothing around it.
func TestJSONStdoutIsPure(t *testing.T) {
	if testing.Short() {
		t.Skip("full live-cluster run")
	}
	var out bytes.Buffer
	err := run([]string{
		"-inproc", "2", "-conns", "2", "-duration", "600ms", "-json", "-", "-q",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var rep loadgen.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stdout not pure JSON: %v\n%s", err, out.String())
	}
	if dec.More() {
		t.Errorf("trailing data after the JSON report:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-partition", "5s", "-duration", "2s"}, // partition past the end
		{"-connect", "x:1", "-partition", "1s"}, // partition needs inproc
		{"-partition", "1s", "-heal", "500ms"},  // heal before injection
		{"-partition", "1s", "-heal", "10s"},    // heal past the end
		{"-inproc", "3", "-alg", "definitely-not-an-alg"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}
