// Command perfbench is the repository's serving benchmark. It builds
// cmd/securedb and cmd/uddiserver from the checkout, starts them as real
// processes on fresh data directories, drives them over HTTP with at most
// two requests in flight, checks every answer against an oracle that
// does not depend on the servers, and prints the end-to-end metrics. With
// -trace 1 it also rebuilds each server's pipeline in-process, replays
// the same request sequence stage by stage, and prints per-layer metrics.
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sdb-read-1k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The generator shares two vCPUs with the servers; fewer collections
	// keep its pauses out of the open-loop schedule.
	debug.SetGCPercent(400)
	os.Exit(run())
}

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: sdb-read-1k, sdb-mixed-10k or uddi-auth-4k")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed sends the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "scales the fixed request counts: 10 is a full run, below 10 a smoke run")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds the traced in-process replay and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to build and measure")
	flag.Parse()
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		warnf("-seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	envLine, err := json.Marshal(rep.env)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Printf("env %s\n", envLine)
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if cfg.trace == 1 {
		out.Metrics = rep.layers
	}
	for _, name := range sortedKeys(out.Metrics) {
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
