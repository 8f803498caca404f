package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"photon"
	"photon/internal/tpch"
)

// tpchSpec is the set-up of the two TPC-H workloads: tpch_local runs the
// paper's Fig. 8 single-task setting over in-memory tables; tpch_staged
// runs the same queries staged over Delta tables, with a broadcast ceiling
// that broadcasts the small dimension tables and shuffles partsupp-,
// orders- and lineitem-sized build sides.
func tpchSpec(sf float64, staged bool) setupSpec {
	if !staged {
		return setupSpec{sf: sf, tables: tpchTables, cfg: photon.Config{Parallelism: 1}}
	}
	return setupSpec{sf: sf, tables: tpchTables, useDelta: true, fileRows: 65536,
		cfg: photon.Config{Parallelism: 2, BroadcastRows: 50_000}}
}

// tpchRun measures passes over the 22 queries. Each pass runs every query
// once, serially, in an order drawn from the seed; every result is checked
// against the row-engine digests.
type tpchRun struct {
	o          options
	e          *env
	rng        *rand.Rand
	heap       *heapSampler
	tr         *traceAcc // nil unless the pass is traced
	rep        *report
	perQ       map[int][]float64 // ms per execution, measured passes
	executions int
	passes     []float64 // seconds per measured pass
	peaks      []float64 // MB heap peak per measured pass
}

func runTPCH(o options, staged bool) (*report, error) {
	spec := tpchSpec(o.sf, staged)
	e, setupTimes, err := setupTimed(spec, o.base, o.setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := &tpchRun{o: o, e: e, rng: rand.New(rand.NewPCG(uint64(o.seed), 0x5eed)),
		rep: &report{}, perQ: map[int][]float64{}}
	// Warm-up pass: fills the plan cache and the engine's pools; checked
	// and counted, not timed.
	t.pass(false)
	t.heap = startHeapSampler(0)
	defer t.heap.Stop()

	if !o.trace {
		t.measure(o.seconds)
		t.endToEnd(setupTimes)
		return t.rep, nil
	}
	// Traced run: half the time untraced (the overhead base), half traced.
	t.measure(o.seconds / 2)
	base := median(t.passes)
	t.passes = nil
	t.tr = newTraceAcc(spec.cfg.Parallelism)
	before := snapshotRegistry(e.sess)
	start := time.Now()
	t.measure(o.seconds / 2)
	t.tr.wall = time.Since(start)
	t.tr.passes = len(t.passes)
	t.tr.overhead = median(t.passes)/base - 1
	t.tr.reg = diffRegistry(before, snapshotRegistry(e.sess))
	texts := make([]string, 0, 22)
	for _, q := range tpch.QueryNumbers() {
		texts = append(texts, tpch.Queries[q])
	}
	rp, err := replayLayers(e, replayInput{texts: texts, stage: stageConfigOf(spec.cfg),
		table: "lineitem", rowsPerBlock: t.tr.rowsPerBlock(), spans: o.spans})
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	t.rep.layer = t.tr.metrics(rp)
	return t.rep, nil
}

// measure runs timed passes until the budget is spent. A pass starts only
// if the previous one would still fit, and at least two passes run.
func (t *tpchRun) measure(budget float64) {
	start := time.Now()
	last := 0.0
	for n := 0; n < 2 || time.Since(start).Seconds()+last <= budget; n++ {
		last = t.pass(true)
		t.passes = append(t.passes, last)
		t.peaks = append(t.peaks, t.heap.Cut())
	}
}

// pass runs the 22 queries once in a seeded order and returns the summed
// query time in seconds.
func (t *tpchRun) pass(timed bool) float64 {
	qs := tpch.QueryNumbers()
	t.rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	var total time.Duration
	for _, q := range qs {
		name := fmt.Sprintf("Q%02d", q)
		start := time.Now()
		var res *photon.Result
		var err error
		if t.tr != nil {
			var p *photon.Profile
			p, err = t.e.sess.SQLWithProfile(tpch.Queries[q])
			if err == nil {
				res = p.Result
				t.tr.add(q, p)
			}
		} else {
			res, err = t.e.sess.SQL(tpch.Queries[q])
		}
		d := time.Since(start)
		t.o.spans.add(name, "query", start, d)
		t.rep.attempted++
		if err != nil || !t.o.check(q, res) {
			t.rep.failed++
			t.o.logf("Q%d: wrong result or error: %v", q, err)
		}
		if timed {
			total += d
			t.perQ[q] = append(t.perQ[q], ms(d))
			t.executions++
		}
	}
	return total.Seconds()
}

func (t *tpchRun) endToEnd(setupTimes []float64) {
	var qmed []float64
	for _, q := range tpch.QueryNumbers() {
		qmed = append(qmed, median(t.perQ[q]))
	}
	t.rep.e2e = []metricVal{
		{"setup_s", "s", median(setupTimes)},
		{"heap_peak_mb", "MB", median(t.peaks)},
		{"suite_s", "s", median(t.passes)},
		{"query_geomean_ms", "ms", geomean(qmed)},
		// Percentiles over the 22 queries' median times: with every query
		// run equally often, percentiles over single executions would sit
		// on the edge between two queries' runs and jump between them.
		{"read_p50_ms", "ms", quantile(qmed, 0.5)},
		{"max_qps", "1/s", float64(t.executions) / sum(t.passes)},
	}
	t.rep.extra = []metricVal{
		{"read_p95_ms", "ms", quantile(qmed, 0.95)},
		{"read_p99_ms", "ms", quantile(qmed, 0.99)},
	}
}
