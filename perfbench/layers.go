package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"photon"
	"photon/internal/obs"
	"photon/internal/sql/catalyst"
)

// spanLog records spans around the benchmark's calls into each layer
// (statements, replays) and writes them as Chrome trace-event JSON at the
// end of a traced run. Nil-safe: an untraced run records nothing.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	events []span
}

type span struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // µs since the first span
	Dur  float64 `json:"dur"` // µs
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

func (l *spanLog) add(name, cat string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.origin.IsZero() {
		l.origin = start
	}
	l.events = append(l.events, span{Name: name, Cat: cat, Ph: "X",
		TS: float64(start.Sub(l.origin).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3, PID: 1, TID: 1})
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// regSnap is one snapshot of a session's metrics registry by name.
type regSnap map[string]obs.MetricSnapshot

func snapshotRegistry(s *photon.Session) regSnap {
	out := regSnap{}
	for _, m := range s.Metrics().Export() {
		out[m.Name] = m
	}
	return out
}

// diffRegistry returns after − before for counters and histogram
// count/sum; gauges keep their value after.
func diffRegistry(before, after regSnap) regSnap {
	out := regSnap{}
	for name, a := range after {
		b := before[name]
		d := a
		if a.Kind != "gauge" {
			d.Value -= b.Value
		}
		d.Count -= b.Count
		d.Sum -= b.Sum
		out[name] = d
	}
	return out
}

func (r regSnap) val(name string) float64 { return float64(r[name].Value) }

// histMean is a histogram's mean over the interval (0 when empty).
func (r regSnap) histMean(name string) float64 {
	return ratio(float64(r[name].Sum), float64(r[name].Count))
}

// traceAcc accumulates what the engine reports about each traced
// statement: its lifecycle statistics and its operator profile.
type traceAcc struct {
	slots                     int
	stmts                     int
	queued, planning, running []float64 // ms per statement
	stages                    []float64
	peakReserved              int64
	rowsOut, batchesOut       int64
	perQuery                  map[int][]float64 // running ms per TPC-H query
	passes                    int
	wall                      time.Duration
	overhead                  float64 // traced / untraced suite_s − 1
	reg                       regSnap // registry delta over the traced phase
	lateP99                   float64 // serving open-loop lateness, ms
	mu                        sync.Mutex
}

func newTraceAcc(slots int) *traceAcc {
	return &traceAcc{slots: max(slots, 1), perQuery: map[int][]float64{}}
}

// add folds one statement's stats; q is its TPC-H query number, or 0.
func (a *traceAcc) add(q int, p *photon.Profile) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addStats(q, p.Lifecycle)
	if p.Plan == nil {
		return
	}
	for _, st := range p.Plan.Stages {
		for _, op := range st.Ops {
			a.rowsOut += op.RowsOut
			a.batchesOut += op.BatchesOut
		}
	}
}

// addStats folds a statement's lifecycle statistics (caller holds mu).
func (a *traceAcc) addStats(q int, st *photon.QueryStats) {
	if st == nil {
		return
	}
	a.stmts++
	a.queued = append(a.queued, ms(st.Queued))
	a.planning = append(a.planning, ms(st.Planning))
	a.running = append(a.running, ms(st.Running))
	a.stages = append(a.stages, float64(st.Stages))
	a.peakReserved = max(a.peakReserved, st.PeakReservedBytes)
	if q > 0 {
		a.perQuery[q] = append(a.perQuery[q], ms(st.Running))
	}
}

// rowsPerBlock is the traced shuffle's mean rows per block (0 when
// nothing was shuffled).
func (a *traceAcc) rowsPerBlock() int {
	return int(ratio(a.reg.val("photon_shuffle_write_rows_total"), a.reg.val("photon_shuffle_write_blocks_total")))
}

// metrics renders every per-layer metric, in a fixed order. Counts are per
// pass (22 queries for TPC-H, one closed-loop script for serving_mix);
// metrics of a layer the workload does not reach read 0.
func (a *traceAcc) metrics(rp replayResult) []metricVal {
	r := a.reg
	per := func(x float64) float64 { return ratio(x, float64(a.passes)) }
	hits, misses := r.val("photon_plan_cache_hits_total"), r.val("photon_plan_cache_misses_total")
	poolHits, poolMisses := r.val("photon_mem_pool_hits_total"), r.val("photon_mem_pool_misses_total")
	taskMicros := float64(r["photon_sched_task_micros"].Sum)
	out := []metricVal{
		{"session.queue_ms", "ms", avg(a.queued)},
		{"session.plan_ms", "ms", avg(a.planning)},
		{"plancache.hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"plancache.invalidations", "count", per(r.val("photon_plan_cache_invalidations_total"))},
		{"fastpath.ratio", "ratio", ratio(r.val("photon_fastpath_queries_total"), float64(a.stmts))},
		{"sql.parse_us", "us", rp.parseUS},
		{"catalyst.compile_us", "us", rp.compileUS},
		{"driver.run_ms", "ms", avg(a.running)},
		{"driver.stages", "count", avg(a.stages)},
	}
	for q := 1; q <= 22; q++ {
		out = append(out, metricVal{fmt.Sprintf("driver.q%02d_run_ms", q), "ms", median(a.perQuery[q])})
	}
	out = append(out,
		metricVal{"sched.tasks", "count", per(r.val("photon_sched_tasks_started_total"))},
		metricVal{"sched.task_ms", "ms", r.histMean("photon_sched_task_micros") / 1e3},
		metricVal{"sched.slot_wait_ms", "ms", r.histMean("photon_sched_slot_wait_micros") / 1e3},
		metricVal{"sched.busy_frac", "ratio", ratio(taskMicros, float64(a.wall.Microseconds())*float64(a.slots))},
		metricVal{"sched.retries", "count", per(r.val("photon_sched_task_retries_total"))},
		metricVal{"shuffle.rows", "count", per(r.val("photon_shuffle_write_rows_total"))},
		metricVal{"shuffle.blocks", "count", per(r.val("photon_shuffle_write_blocks_total"))},
		metricVal{"shuffle.rows_per_block", "rows", float64(a.rowsPerBlock())},
		metricVal{"shuffle.bytes", "B", per(r.val("photon_shuffle_write_bytes_total"))},
		metricVal{"shuffle.compress_ratio", "ratio", ratio(r.val("photon_shuffle_write_raw_bytes_total"), r.val("photon_shuffle_write_bytes_total"))},
		metricVal{"shuffle.write_ns_per_row", "ns/row", rp.shuffleWriteNS},
		metricVal{"shuffle.read_ns_per_row", "ns/row", rp.shuffleReadNS},
		metricVal{"lz4.compress_mb_s", "MB/s", rp.lz4CompressMBs},
		metricVal{"lz4.decompress_mb_s", "MB/s", rp.lz4DecompressMBs},
		metricVal{"lz4.alloc_bytes_per_call", "B", rp.lz4AllocPerCall},
		metricVal{"parquet.decode_ns_per_row", "ns/row", rp.parquetDecodeNS},
		metricVal{"parquet.write_ns_per_row", "ns/row", rp.parquetWriteNS},
		metricVal{"delta.snapshot_ms", "ms", rp.deltaSnapshotMS},
		metricVal{"delta.commit_ms", "ms", rp.deltaCommitMS},
		metricVal{"delta.files", "count", rp.deltaFiles},
		metricVal{"delta.versions", "count", rp.deltaVersions},
		metricVal{"rf.built", "count", per(r.val("photon_runtime_filter_built_total"))},
		metricVal{"rf.applied", "count", per(r.val("photon_runtime_filter_applied_total"))},
		metricVal{"rf.rows_pruned", "count", per(r.val("photon_runtime_filter_rows_pruned_total"))},
		metricVal{"rf.row_groups_pruned", "count", per(r.val("photon_runtime_filter_row_groups_pruned_total"))},
		metricVal{"rf.files_pruned", "count", per(r.val("photon_runtime_filter_files_pruned_total"))},
		metricVal{"ht.build_ns_per_row", "ns/row", rp.htBuildNS},
		metricVal{"ht.probe_ns_per_row", "ns/row", rp.htProbeNS},
		metricVal{"exec.rows_out", "count", per(float64(a.rowsOut))},
		metricVal{"exec.batches_out", "count", per(float64(a.batchesOut))},
		metricVal{"exec.rows_per_batch", "rows", ratio(float64(a.rowsOut), float64(a.batchesOut))},
		metricVal{"mem.reserve_calls", "count", per(r.val("photon_mem_reserve_calls_total"))},
		metricVal{"mem.spills", "count", per(r.val("photon_mem_spills_total"))},
		metricVal{"mem.peak_reserved_mb", "MB", float64(a.peakReserved) / (1 << 20)},
		metricVal{"mem.pool_hit_ratio", "ratio", ratio(poolHits, poolHits+poolMisses)},
		metricVal{"trace.overhead_frac", "ratio", a.overhead},
		metricVal{"loadgen.late_p99_ms", "ms", a.lateP99},
	)
	return out
}

func avg(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// stageConfigOf mirrors the stage-planner configuration a session with cfg
// compiles against, for the compile replay.
func stageConfigOf(cfg photon.Config) catalyst.StageConfig {
	return catalyst.StageConfig{Parallelism: cfg.Parallelism, BroadcastRows: cfg.BroadcastRows,
		RuntimeFilters: !cfg.DisableRuntimeFilters}
}
