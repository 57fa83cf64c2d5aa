// Command nimbus-bench regenerates the paper's evaluation tables and
// figures (§5). By default it runs every experiment at quick scale; use
// -scale paper for the full 100-worker, 8000-task configuration and -exp
// to select one experiment.
//
//	nimbus-bench -exp fig7
//	nimbus-bench -scale paper -exp table2
//	nimbus-bench -list
//
// Every run first prints this machine's timing error: what a 100µs
// time.Sleep really takes, and how far simclock.Wait, which every modelled
// cost goes through, overshoots 100µs on average.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nimbus/internal/bench"
	"nimbus/internal/simclock"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Scale) (*bench.Table, error)
}{
	{"fig1", "Spark-like control plane bottleneck (LR, worker sweep)", bench.Fig1},
	{"table1", "Template installation per-task costs", bench.Table1},
	{"table2", "Template instantiation per-task costs", bench.Table2},
	{"table3", "Edit costs vs full installs vs static-dataflow reinstall", bench.Table3},
	{"fig7", "LR & k-means iteration time across systems", bench.Fig7},
	{"fig8", "Task throughput: Nimbus vs central baseline", bench.Fig8},
	{"fig9", "Dynamic adaptation timeline", bench.Fig9},
	{"fig10", "Migration every 5 iterations: edits vs reinstall", bench.Fig10},
	{"fig11", "Water simulation: MPI vs Nimbus vs Nimbus w/o templates", bench.Fig11},
	{"shuffle", "Streaming data plane: shuffle goodput, flow control, spill", bench.Shuffle},
	{"frontdoor", "Driver front door: session mux, admission latency, fair share", bench.FrontDoor},
	{"fleet", "Elastic fleet: warm-gated joins, graceful drains, autoscale sim", bench.Fleet},
}

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or paper")
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}
	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick()
	case "paper":
		scale = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleName)
		os.Exit(2)
	}

	printTimingError()
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran++
		fmt.Printf("running %s (%s scale)...\n", e.name, scale.Name)
		start := time.Now()
		t, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s(completed in %v)\n\n", t.Format(), time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}

// printTimingError reports how far this machine's clock strays from the
// modelled costs the experiments ask for.
func printTimingError() {
	const d, n = 100 * time.Microsecond, 50
	mean := func(wait func(time.Duration)) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			wait(d)
		}
		return time.Since(start) / n
	}
	fmt.Printf("timing: time.Sleep(%v) takes %v; simclock.Wait(%v) overshoots by %v (means of %d)\n\n",
		d, mean(time.Sleep), d, mean(simclock.Wait)-d, n)
}
