// Command perfbench is the engine's benchmark: three workloads, each
// measured end to end, plus a traced run that reports per-layer metrics.
// See README.md for the workloads, the metrics and what each layer metric
// should move.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload tpch_local --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20   # every workload, one process
//	perfbench oracle                                 # rewrite perfbench/oracle_sf0.1.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"photon"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"tpch_local":  func(o options) (*report, error) { return runTPCH(o, false) },
	"tpch_staged": func(o options) (*report, error) { return runTPCH(o, true) },
	"serving_mix": runServing,
}

var workloadOrder = []string{"tpch_local", "tpch_staged", "serving_mix"}

// options are one run's parameters.
type options struct {
	seed      int64
	seconds   float64
	trace     bool
	base      string  // scratch directory for this run's files
	sf        float64 // TPC-H scale factor of the tpch_* workloads
	setupReps int
	digests   map[int]string // expected TPC-H result digests at sf
	spans     *spanLog
	log       io.Writer
}

func (o options) logf(format string, args ...any) {
	if o.log != nil {
		fmt.Fprintf(o.log, format+"\n", args...)
	}
}

// check reports whether a TPC-H result matches its digest.
func (o options) check(q int, res *photon.Result) bool {
	return res != nil && digest(q, res) == o.digests[q]
}

type metricVal struct {
	name, unit string
	value      float64
}

// report is one workload run's outcome. e2e holds the end-to-end metrics
// every workload reports; extra holds workload-specific end-to-end figures
// that are printed but have no counterpart on the other workloads; layer
// holds the traced run's per-layer metrics.
type report struct {
	attempted, failed int64
	e2e, extra, layer []metricVal
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes every metric by name and unit, one per line.
func (r *report) print(w io.Writer, prefix string, trace bool) {
	ff := ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(w, "%s%-28s %14.6g %s\n", prefix, "fail_frac", ff, "ratio")
	list := append(append([]metricVal(nil), r.e2e...), r.extra...)
	if trace {
		list = r.layer
	}
	for _, m := range list {
		fmt.Fprintf(w, "%s%-28s %14.6g %s\n", prefix, m.name, m.value, m.unit)
	}
}

// result is the machine-readable line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func (r *report) result(trace bool) jsonResult {
	out := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]jsonMetric{}}
	list := r.e2e
	if trace {
		list = r.layer
	}
	for _, m := range list {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "oracle" {
		out := filepath.Join("perfbench", oracleFile)
		if err := writeOracle(out); err != nil {
			fmt.Fprintln(stderr, "oracle:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", out)
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "tpch_local | tpch_staged | serving_mix | all")
	seed := fs.Int64("seed", 1, "workload seed: query order, serving keys, arrivals and appended rows")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "unknown workload %q (want one of %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	digests, err := loadOracle()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	root, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	combined := map[string]jsonResult{}
	var last jsonResult
	for _, name := range names {
		base, err := os.MkdirTemp(root, "run-"+name+"-")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, base: base,
			sf: oracleSF, setupReps: 3, digests: digests, log: stderr}
		if o.trace {
			o.spans = &spanLog{}
		}
		rep, err := workloads[name](o)
		if err == nil && o.spans != nil {
			err = o.spans.write(filepath.Join(root, fmt.Sprintf("spans-%s-%d.json", name, *seed)))
		}
		if rerr := os.RemoveAll(base); err == nil {
			err = rerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + " "
		}
		rep.print(stdout, prefix, o.trace)
		last = rep.result(o.trace)
		combined[name] = last
	}
	var b []byte
	if len(names) > 1 {
		b, err = json.Marshal(combined)
	} else {
		b, err = json.Marshal(last)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// scratchRoot is the directory runs write their data under: the build
// directory the wrapper script uses, inside the working tree.
func scratchRoot() (string, error) {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", errors.New("create scratch directory: " + err.Error())
	}
	return root, nil
}
