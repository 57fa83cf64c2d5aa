// Command benchmark is the repository's one repeatable benchmark: four
// fixed-work workloads over an in-process driver + controller + 4 workers,
// six end-to-end metrics from untraced runs, and per-layer attribution
// measured from outside the nodes by a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"
)

// home is the benchmark's directory relative to the working directory: the
// program is run from the repository root (go run ./benchmark) or from its
// own directory (go -C benchmark run ., go test).
func home() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark"
	}
	return "."
}

// outDir holds what runs leave behind (worker spill directories, span
// files); it is git-ignored.
func outDir() string { return filepath.Join(home(), ".bench_out") }

func main() {
	started := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", refSeconds, "measured-phase length the frozen iteration counts are scaled to")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		all     = flag.Bool("all", false, "run every workload, each in its own process")
		runs    = flag.Int("runs", 1, "with -all: runs per workload and set")
		out     = flag.String("out", "", "with -all: directory that receives each run's output; dirA,dirB makes two sets, interleaved run by run")
		agree   = flag.Bool("agree", false, "compare two directories of run outputs: -agree dirA dirB")
	)
	flag.Parse()
	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal("usage: -agree dirA dirB")
		}
		os.Exit(agreeMode(flag.Arg(0), flag.Arg(1)))
	case *all:
		os.Exit(runAll(*seed, *runs, *seconds, *trace, *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fatal("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	cfg := runConfig{
		w: w, blk: w.block(*seed), seed: *seed, warmup: w.warmup, iters: w.measured * *seconds / refSeconds,
		traced: *trace == 1, started: started,
		spans:      filepath.Join(outDir(), fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed)),
		probeTrips: 10000, probeBytes: 1 << 30,
	}
	scratch, err := scratchDir()
	if err != nil {
		fatal("%v", err)
	}
	cfg.scratch = scratch
	printHeader(cfg)

	// Watchdog: a hang must cost seconds, not the driver's timeout. Five
	// times the expected run, capped below the contract's 180 s.
	var progress atomic.Int64
	limit := 5 * (5*time.Second + time.Duration(*seconds)*time.Second)
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog: no result after %v; goroutines:\n", limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		done := int(progress.Load())
		printResult(&result{Attempted: cfg.attempted(), Failed: cfg.attempted() - done, Metrics: map[string]metric{},
			note: fmt.Sprintf("watchdog expired after %v with %d iterations done", limit, done)})
		os.RemoveAll(scratch)
		os.Exit(3)
	})

	res, err := run(cfg, &progress)
	os.RemoveAll(scratch)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// printHeader prints the environment every run records.
func printHeader(cfg runConfig) {
	transportName := "mem"
	if cfg.w.tcp {
		transportName = "tcp-loopback"
	}
	fmt.Printf("# nimbus-benchmark workload=%s seed=%d trace=%t transport=%s warmup_iters=%d measured_iters=%d tasks_per_iter=%d\n",
		cfg.w.name, cfg.seed, cfg.traced, transportName, cfg.warmup, cfg.iters, cfg.blk.tasksPerIter())
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d commit=%s workers=%d slots=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), numWorkers, numSlots)
}

// commit names the checkout's commit, or "unknown" outside a git clone
// (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult prints the metrics by name with units, then the one JSON
// line the driver reads.
func printResult(r *result) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-44s %16.4f %s\n", name, m.Value, m.Unit)
	}
	check := "passed"
	if !r.Correct {
		check = "FAILED: " + r.note
	}
	fmt.Printf("iterations attempted=%d failed=%d output check %s\n", r.Attempted, r.Failed, check)
	line, err := json.Marshal(r)
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload runs times per set, each run in a fresh
// process of this same binary so that setup_s and peak_rss_mb mean what they
// say. out names one directory per set. Workloads interleave within a round
// and sets within a run number (A B A B ...), so slow drift of the box
// spreads over all workloads and both sets instead of separating them. Set k
// uses seeds seed+k*runs .. seed+(k+1)*runs-1.
func runAll(seed int64, runs, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("locating own binary: %v", err)
	}
	sets := []string{""}
	if out != "" {
		sets = strings.Split(out, ",")
		for _, dir := range sets {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal("%v", err)
			}
		}
	}
	code := 0
	for r := 0; r < runs; r++ {
		for k, dir := range sets {
			runSeed := fmt.Sprint(seed + int64(k*runs+r))
			for _, w := range workloads {
				cmd := exec.Command(self, "-workload", w.name, "-seed", runSeed,
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				b, err := cmd.Output()
				os.Stdout.Write(b)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %s: %v\n", w.name, runSeed, err)
					code = 1
				}
				if dir == "" {
					continue
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-seed%s.out", w.name, runSeed))
				if err := os.WriteFile(path, b, 0o644); err != nil {
					fatal("%v", err)
				}
			}
		}
	}
	return code
}
