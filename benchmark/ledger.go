package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// contract is BENCHMARK.json: the command, the workloads, and for each
// end-to-end metric its direction and the bound by which it may worsen.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadContract(path string) (contract, error) {
	var c contract
	return c, readJSON(path, &c)
}

// ledgerValue is one end-to-end metric of one workload over the
// ledger's runs.
type ledgerValue struct {
	Value  float64   `json:"value"` // best of the runs
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"` // (max − min) ÷ median of the runs
	Runs   []float64 `json:"runs"`
}

// workloadLedger is everything the ledger holds about one workload.
type workloadLedger struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// FailedShare is failed ÷ attempted over all runs, crashed runs
	// included; 0 at the seed commit.
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]ledgerValue `json:"end_to_end"`
	PerLayer    map[string]metric      `json:"per_layer"`
	// Runs are the untraced runs as reported, in the order they ran.
	Runs []report `json:"runs"`
	// Traced is the traced run as reported, minus the metrics that
	// PerLayer already shows.
	Traced report `json:"traced"`
}

type ledger struct {
	Env       envInfo                    `json:"env"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

// runLedger measures every workload: runs rounds of untraced runs,
// interleaved (A B C D, A B C D, ...) so that a burst of noise hits
// one run of each workload instead of every run of one, then one
// traced run each.
func runLedger(seed int64, seconds, runs int) (*ledger, error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	led := &ledger{Env: newEnv(seed, seconds), Workloads: make(map[string]*workloadLedger)}
	for _, w := range workloads {
		led.Workloads[w.name] = &workloadLedger{}
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "run %d/%d %s\n", r+1, runs, w.name)
			rep, err := runChild(w.name, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			wl := led.Workloads[w.name]
			wl.Runs = append(wl.Runs, rep)
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "traced run %s\n", w.name)
		rep, err := runChild(w.name, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		wl := led.Workloads[w.name]
		wl.PerLayer, rep.Metrics = rep.Metrics, nil
		wl.Traced = rep
	}
	led.summarize(c)
	return led, nil
}

// summarize folds the runs into best-of-runs values and the noise flag.
func (l *ledger) summarize(c contract) {
	var calib []float64
	for _, wl := range l.Workloads {
		wl.EndToEnd = make(map[string]ledgerValue)
		wl.Attempted, wl.Failed = wl.Traced.Attempted, wl.Traced.Failed
		for _, e := range c.EndToEnd {
			v := ledgerValue{Unit: e.Unit}
			for _, rep := range wl.Runs {
				if m, ok := rep.Metrics[e.Name]; ok {
					v.Runs = append(v.Runs, m.Value)
				}
			}
			v.Value = best(v.Runs, e.Better == "lower")
			v.Spread = spread(v.Runs)
			wl.EndToEnd[e.Name] = v
		}
		for _, rep := range wl.Runs {
			wl.Attempted += rep.Attempted
			wl.Failed += rep.Failed
			l.Env.StealShare = math.Max(l.Env.StealShare, rep.Harness["harness.steal_share"].Value)
			calib = append(calib, rep.Harness["harness.calib_ns"].Value)
		}
		wl.FailedShare = ratio(float64(wl.Failed), float64(wl.Attempted))
	}
	l.Env.CalibNs = median(calib)
	l.Env.CalibSpan = spread(calib)
	l.Env.Noisy = l.Env.StealShare > 0.2 || l.Env.CalibSpan > 0.25
}

// correct reports whether every run of every workload passed its
// oracle without a failed op.
func (l *ledger) correct() bool {
	for _, wl := range l.Workloads {
		if wl.Failed > 0 || !wl.Traced.Correct {
			return false
		}
		for _, rep := range wl.Runs {
			if !rep.Correct {
				return false
			}
		}
	}
	return true
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	l := new(ledger)
	return l, readJSON(path, l)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print shows every metric of the ledger by name and unit.
func (l *ledger) print() {
	fmt.Printf("env: %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d steal=%.3f calib=%.0fns±%.0f%% noisy=%v\n",
		l.Env.GoVersion, l.Env.GOMAXPROCS, l.Env.NumCPU, l.Env.Commit, l.Env.Seed,
		l.Env.StealShare, l.Env.CalibNs, 100*l.Env.CalibSpan, l.Env.Noisy)
	for _, w := range workloads {
		wl := l.Workloads[w.name]
		if wl == nil {
			continue
		}
		fmt.Printf("\n%s: attempted=%d failed=%d failed_share=%g\n", w.name, wl.Attempted, wl.Failed, wl.FailedShare)
		for _, rep := range append(wl.Runs, wl.Traced) {
			if rep.Error != "" {
				fmt.Printf("  FAILED: %s\n", rep.Error)
			}
		}
		for _, name := range sortedKeys(wl.EndToEnd) {
			v := wl.EndToEnd[name]
			fmt.Printf("  %-38s %14.4f %-6s best of %d, spread %.1f%%\n", name, v.Value, v.Unit, len(v.Runs), 100*v.Spread)
		}
		for _, name := range sortedKeys(wl.PerLayer) {
			fmt.Printf("  %-38s %14.4f %s\n", name, wl.PerLayer[name].Value, wl.PerLayer[name].Unit)
		}
	}
}

// Verdicts of one compared row.
const (
	improved   = "improved"
	flat       = "flat"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares a new best-of-runs value with an old one. delta is
// the change as a share of the old value, positive when worse. A row
// whose runs spread wider than the bound on either side cannot resolve
// a change of the bound's size.
func judge(old, new ledgerValue, lowerIsBetter bool, bound float64) (delta float64, verdict string) {
	delta = (new.Value - old.Value) / math.Abs(old.Value)
	if !lowerIsBetter {
		delta = -delta
	}
	switch {
	case old.Spread > bound || new.Spread > bound:
		return delta, unresolved
	case delta > bound:
		return delta, regressed
	case delta < -bound:
		return delta, improved
	}
	return delta, flat
}

// compareLedgers prints one row per workload and end-to-end metric and
// returns how often it gave each verdict, and whether every value of
// new is within its bound of old's in both directions.
func compareLedgers(c contract, old, new *ledger) (verdicts map[string]int, within bool) {
	verdicts = make(map[string]int)
	within = true
	fmt.Printf("%-14s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	for _, w := range c.Workloads {
		o, n := old.Workloads[w.Name], new.Workloads[w.Name]
		if o == nil || n == nil {
			fmt.Printf("%-14s missing on one side\n", w.Name)
			verdicts[unresolved]++
			within = false
			continue
		}
		for _, e := range c.EndToEnd {
			delta, verdict := judge(o.EndToEnd[e.Name], n.EndToEnd[e.Name], e.Better == "lower", e.Bound)
			verdicts[verdict]++
			if math.Abs(delta) > e.Bound {
				within = false
			}
			fmt.Printf("%-14s %-12s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", w.Name, e.Name,
				o.EndToEnd[e.Name].Value, n.EndToEnd[e.Name].Value, 100*delta, 100*e.Bound, verdict)
		}
		if n.FailedShare > o.FailedShare {
			fmt.Printf("%-14s %-12s %12g %12g %21s\n", w.Name, "failed_share", o.FailedShare, n.FailedShare, regressed)
			verdicts[regressed]++
			within = false
		}
	}
	return verdicts, within
}

func compareFiles(oldPath, newPath string) (anyRegressed bool, err error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	old, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	verdicts, _ := compareLedgers(c, old, new)
	return verdicts[regressed] > 0, nil
}

// exactRows are per-layer counts that the code alone determines: two
// ledgers of the same code must show the same number.
var exactRows = []struct{ workload, row string }{
	{"stencil-halo", "sched.tasks_per_op"},
	{"stencil-halo", "sched.splits_per_op"},
	{"spawn-tree", "sched.tasks_per_op"},
	{"spawn-tree", "sched.splits_per_op"},
}

// runSets is the benchmark's self-check: n ledgers of the same code
// must agree with the first within the bounds, in both directions —
// whatever the runs' spread — and on the exact rows.
func runSets(n int, seed int64, seconds, runs int) (agree bool, err error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var first *ledger
	agree = true
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "set %d/%d\n", i+1, n)
		led, err := runLedger(seed, seconds, runs)
		if err != nil {
			return false, err
		}
		if err := led.write(filepath.Join(buildDir, fmt.Sprintf("set-%d.json", i+1))); err != nil {
			return false, err
		}
		if !led.correct() {
			fmt.Printf("set %d: an oracle failed\n", i+1)
			agree = false
		}
		if first == nil {
			first = led
			continue
		}
		fmt.Printf("\nset %d against set 1:\n", i+1)
		if _, within := compareLedgers(c, first, led); !within {
			agree = false
		}
		for _, x := range exactRows {
			a, b := first.Workloads[x.workload].PerLayer[x.row].Value, led.Workloads[x.workload].PerLayer[x.row].Value
			same := "identical"
			if a != b {
				same, agree = "DIFFERENT", false
			}
			fmt.Printf("%-14s %-26s %12g %12g  %s\n", x.workload, x.row, a, b, same)
		}
	}
	fmt.Printf("\nsets agree within bounds: %v\n", agree)
	return agree, nil
}
