// Command figbench is the repository's benchmark: it regenerates the
// paper's tables for one named workload and reports what a user waits
// for (wall time, CPU, set-up time, memory, failed cells) or, traced, the
// per-layer split of where that time went. It drives the simulator only
// through the public Runner surface a figures run uses.
//
//	figbench --workload fault-sweep --seed 1 --seconds 20 --trace 0
//	figbench compare base.jsonl change.jsonl
//	figbench record 1 2 > figbench/digests.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See DESIGN.md for the workloads,
// metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A run measures set-up at least minProbes times, and keeps probing
// until probeBudget is spent or it has maxProbes; it reports the median.
const (
	minProbes   = 5
	maxProbes   = 21
	probeBudget = time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fault-sweep, steady-sweep, timing-smt, fragmented")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measure this long (whole sweeps, at least two)")
	traceOn := fs.Int("trace", 0, "1: print the per-layer split instead of end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	logPath := fs.String("log", "", "append {workload, seed, trace, result} to this JSONL file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "record" {
		if err := record(fs.Args()[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "figbench:", err)
			return 1
		}
		return 0
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			fmt.Fprintln(stderr, "usage: figbench compare BASE.jsonl CHANGE.jsonl")
			return 2
		}
		if err := compare("BENCHMARK.json", fs.Arg(1), fs.Arg(2), stdout); err != nil {
			fmt.Fprintln(stderr, "figbench:", err)
			return 1
		}
		return 0
	}
	s, err := specByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "figbench:", err)
		return 2
	}
	book, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "figbench:", err)
		return 1
	}

	var res result
	if *traceOn == 1 {
		res = tracedRun(s, *seed, book, *out, stdout)
	} else {
		res, err = plainRun(s, *seed, time.Duration(*seconds)*time.Second, book, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "figbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "figbench:", err)
		return 1
	}
	if *logPath != "" {
		if err := appendLog(*logPath, logRecord{Workload: s.name, Seed: *seed, Trace: *traceOn, Result: res}); err != nil {
			fmt.Fprintln(stderr, "figbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// plainRun measures the end-to-end metrics: set-up probes first, then
// whole sweeps until the time is spent.
func plainRun(s spec, seed int64, budget time.Duration, book digestBook, w io.Writer) (result, error) {
	var setups []float64
	for p0 := time.Now(); len(setups) < minProbes ||
		(len(setups) < maxProbes && time.Since(p0) < probeBudget); {
		d, err := probeSetup(s, seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	var sweeps []sweep
	var walls, cpus []float64
	t0 := time.Now()
	for len(sweeps) < 2 || time.Since(t0) < budget {
		sw := runSweep(s, seed, observers{})
		sweeps = append(sweeps, sw)
		walls = append(walls, sw.wall.Seconds())
		cpus = append(cpus, sw.cpu.Seconds())
	}
	t := book.check(s.name, seed, sweeps)
	fmt.Fprintf(w, "workload %s seed %d: %d sweeps, %d cells, tables %s %s\n",
		s.name, seed, len(sweeps), t.attempted, t.status, t.detail)
	fmt.Fprintf(w, "  sweep wall_s %.3f cpu_s %.3f setup_s %.6f\n", walls, cpus, setups)
	vals := map[string]float64{
		"wall_s":  median(walls),
		"cpu_s":   median(cpus),
		"setup_s": median(setups),
		"ok_frac": 1 - float64(t.failed)/float64(t.attempted),
	}
	return report(w, endToEnd, vals, t), nil
}

// tracedRun measures the per-layer split and checks the traced run
// against the plain one.
func tracedRun(s spec, seed int64, book digestBook, out string, w io.Writer) result {
	spans := ""
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err == nil {
			spans = filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", s.name, seed))
		}
	}
	tr := runTraced(s, seed, spans)
	tr.metrics["process.peak_rss_mb"] = peakRSSMB()
	t := book.check(s.name, seed, []sweep{tr.plain, tr.obs})
	if len(tr.problems) > 0 {
		t.failed = t.attempted
		if t.status != mismatch {
			t.status, t.detail = mismatch, tr.problems[0]
		}
	}
	fmt.Fprintf(w, "workload %s seed %d traced: %d cells, tables %s %s\n",
		s.name, seed, t.attempted, t.status, t.detail)
	for _, p := range tr.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	for _, n := range tr.notes {
		fmt.Fprintln(w, n)
	}
	if spans != "" {
		fmt.Fprintf(w, "spans: %s\n", spans)
	}
	return report(w, perLayer, tr.metrics, t)
}

// report prints the metrics readably and builds the result line.
func report(w io.Writer, defs []metricDef, vals map[string]float64, t tally) result {
	res := result{
		Correct:   t.status != mismatch,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	return res
}

// logRecord is one line of a compare input file.
type logRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendLog(path string, rec logRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
