// Command benchmark is the repository's real-mode benchmark: four
// closed-loop workloads against the real runtime over TCP loopback,
// every output checked against an oracle, every metric printed by name
// and unit. See README.md for the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root is the contract a
// driver runs it by.
//
//	bash benchmark/run.sh --workload stencil-halo --seed 1 --seconds 25 --trace 0
//	    one run; the last line of standard output is the result object
//	bash benchmark/run.sh
//	    the ledger: every workload, -runs untraced runs and one traced
//	    run each, written to -out
//	bash benchmark/run.sh -sets 2
//	    two ledgers of the same code; reports whether they agree within
//	    the bounds of BENCHMARK.json
//	bash benchmark/run.sh -compare old.json new.json
//	    one row per workload and end-to-end metric with a verdict
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// childCeiling bounds one child process. A run and its one re-run
// after a crash both fit the 180 s a driver allows.
const childCeiling = 80 * time.Second

// buildDir is where everything a run leaves behind goes; .gitignore
// names it.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once and print its result object (empty: write the ledger)")
		seed    = flag.Int64("seed", 1, "workload seed: TPC points and queries, job parameters, stencil coefficient, leaf salt")
		seconds = flag.Int("seconds", 25, "length of a run's timed region")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, a traced pass and the layer probes")
		runs    = flag.Int("runs", 3, "ledger: untraced runs per workload, interleaved across workloads")
		sets    = flag.Int("sets", 0, "run this many ledgers of the same code and report whether they agree within bounds")
		out     = flag.String("out", "benchmark/results/BENCH_11.json", "ledger: output file")
		compare = flag.Bool("compare", false, "compare two ledger files given as arguments")
		child   = flag.Bool("child", false, "internal: run in this process and print the report")
	)
	flag.Parse()
	if err := chdirRoot(); err != nil {
		fatal(err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two ledger files"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *child:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			fatal(err)
		}
		rep := run(runConfig{
			workload: w, seed: *seed, length: time.Duration(*seconds) * time.Second,
			trace: *traced != 0, setups: setupRepeats, scratch: buildDir,
		})
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
	case *name != "":
		if _, ok := findWorkload(*name); !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, err := runChild(*name, *seed, *seconds, *traced != 0)
		if err != nil {
			fatal(err)
		}
		printReport(*name, rep)
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	case *sets > 0:
		ok, err := runSets(*sets, *seed, *seconds, *runs)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		led, err := runLedger(*seed, *seconds, *runs)
		if err != nil {
			fatal(err)
		}
		if err := led.write(*out); err != nil {
			fatal(err)
		}
		led.print()
		fmt.Printf("ledger written to %s\n", *out)
		if !led.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// chdirRoot moves to the repository root — the directory that holds
// BENCHMARK.json — from there or from the benchmark's own directory,
// so that relative paths mean the same under `go run -C benchmark .`.
func chdirRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
	}
	return errors.New("BENCHMARK.json not found in this directory or its parent")
}

// runChild runs one workload in a child process, so that a panic in
// the runtime under test becomes a failed run instead of a lost
// report. A child that crashes or outlives childCeiling is run once
// more: the re-run supplies the timings, the crashed run's ops all
// count as failed, and harness.crashed_runs keeps the evidence.
func runChild(name string, seed int64, seconds int, traced bool) (report, error) {
	rep, err := spawnChild(name, seed, seconds, traced)
	crashed := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v; running it once more\n", name, err)
		crashed = 1
		if rep, err = spawnChild(name, seed, seconds, traced); err != nil {
			return report{}, fmt.Errorf("%s crashed twice: %w", name, err)
		}
		rep.Correct = false
		rep.Failed += rep.Attempted
		rep.Attempted *= 2
	}
	for _, set := range []map[string]metric{rep.Metrics, rep.Harness} {
		if m, ok := set["harness.crashed_runs"]; ok {
			m.Value = float64(crashed)
			set["harness.crashed_runs"] = m
		}
	}
	return rep, nil
}

func spawnChild(name string, seed int64, seconds int, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childCeiling)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := pinToOneCPU(); err != nil {
		return report{}, err
	}
	if err := cmd.Run(); err != nil { // Run waits for the child, killed or not
		if ctx.Err() != nil {
			return report{}, fmt.Errorf("child exceeded its %s ceiling", childCeiling)
		}
		return report{}, fmt.Errorf("child: %w", err)
	}
	var rep report
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return report{}, fmt.Errorf("child report: %w", err)
	}
	return rep, nil
}

// printReport prints every metric of a run by name and unit.
func printReport(name string, rep report) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	if rep.Error != "" {
		fmt.Printf("  first failure: %s\n", rep.Error)
	}
	for _, set := range []map[string]metric{rep.Metrics, rep.Harness} {
		for _, n := range sortedKeys(set) {
			fmt.Printf("  %-38s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}
