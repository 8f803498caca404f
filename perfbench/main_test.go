package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tinyDigests caches the row-engine digests at the smoke tests' scale.
var tinyDigests map[int]string

const tinySF = 0.01

func tinyOptions(t *testing.T, trace bool) options {
	t.Helper()
	if tinyDigests == nil {
		o, err := computeOracle(tinySF)
		if err != nil {
			t.Fatal(err)
		}
		tinyDigests = map[int]string{}
		for q := 1; q <= 22; q++ {
			tinyDigests[q] = o.Digest[strconv.Itoa(q)]
		}
	}
	digests := map[int]string{}
	for q, d := range tinyDigests {
		digests[q] = d
	}
	o := options{seed: 7, seconds: 0.4, trace: trace, base: t.TempDir(), sf: tinySF,
		setupReps: 1, digests: digests}
	if trace {
		o.spans = &spanLog{}
	}
	return o
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit and
// carried in the result line, and that no operation failed.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloadOrder))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := workloads[w.Name](tinyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed", w.Name, trace, rep.failed, rep.attempted)
			}
			var out bytes.Buffer
			rep.print(&out, "", trace)
			res := rep.result(trace)
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result carries %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) missing or wrong unit: %+v", w.Name, trace, m.Name, m.Unit, got)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !strings.Contains(out.String(), "fail_frac") {
				t.Errorf("%s: fail_frac not printed", w.Name)
			}
			extra := []string{"read_p95_ms", "read_p99_ms"}
			if w.Name == "serving_mix" {
				extra = append(extra, "lookup_p50_ms", "write_p50_ms", "write_p90_ms")
			}
			if !trace {
				for _, name := range extra {
					if !strings.Contains(out.String(), name) {
						t.Errorf("%s: %s not printed", w.Name, name)
					}
				}
			}
		}
	}
}

// TestCorruptDigest checks that a wrong expected result counts as a
// failure: one corrupted digest must raise fail_frac above 0.
func TestCorruptDigest(t *testing.T) {
	o := tinyOptions(t, false)
	o.digests[6] = strings.Repeat("0", 64)
	rep, err := runTPCH(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("corrupted Q6 digest: %d attempted, none failed", rep.attempted)
	}
	if res := rep.result(false); res.Correct {
		t.Fatal("result line reports correct with a failed check")
	}
}

// TestOracleFile checks the committed digests load.
func TestOracleFile(t *testing.T) {
	d, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 22; q++ {
		if len(d[q]) != 64 {
			t.Errorf("Q%d digest %q", q, d[q])
		}
	}
}
