package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"photon"
	"photon/internal/catalog"
	"photon/internal/storage/delta"
	"photon/internal/tpch"
	"photon/internal/vector"
)

// tpchTables lists the eight TPC-H tables.
var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// servingTables are the tables the serving mix reads and writes.
var servingTables = []string{"region", "nation", "orders"}

// env is one workload's set-up state: the session the timed phase drives,
// the generated data the checks and layer replays read, and a catalog
// mirroring the session's tables for the compile replay.
type env struct {
	sess   *photon.Session
	data   *catalog.Catalog // generated in-memory tables
	cat    *catalog.Catalog // tables as the session sees them (mem or Delta)
	deltas map[string]*photon.DeltaTable
	paths  map[string]string // Delta table directories
	gen    *tpch.Gen
	dir    string
}

// memTable returns a generated table.
func memTable(cat *catalog.Catalog, name string) *catalog.MemTable {
	t, err := cat.Lookup(name)
	if err != nil {
		panic(fmt.Sprintf("generated catalog lacks %s: %v", name, err))
	}
	return t.(*catalog.MemTable)
}

// setupSpec describes how a workload builds its session.
type setupSpec struct {
	sf       float64
	cfg      photon.Config
	tables   []string
	useDelta bool
	fileRows int // rows per Delta data file (one commit per file)
	// appendable marks a workload that appends to its Delta tables: they
	// are created through the session rather than opened after writing.
	appendable bool
}

// setup generates the data and, for Delta workloads, writes each table to
// disk and opens it through the session. dir must not exist yet.
func setup(spec setupSpec, dir string) (*env, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
		return nil, err
	}
	cfg := spec.cfg
	cfg.SpillDir = filepath.Join(dir, "spill")
	gen := tpch.NewGen(spec.sf)
	e := &env{sess: photon.NewSession(cfg), data: gen.Generate(), cat: catalog.New(),
		deltas: map[string]*photon.DeltaTable{}, paths: map[string]string{}, gen: gen, dir: dir}
	for _, name := range spec.tables {
		mt := memTable(e.data, name)
		if !spec.useDelta {
			e.sess.RegisterBatches(name, mt.Sch, mt.Batches)
			e.cat.Register(mt)
			continue
		}
		path := filepath.Join(dir, "delta", name)
		dt, err := e.writeDelta(name, path, mt, spec)
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", name, err)
		}
		e.deltas[name], e.paths[name] = dt, path
		if err := e.refreshCat(name); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// refreshCat re-registers a Delta table's latest snapshot in the mirror
// catalog.
func (e *env) refreshCat(name string) error {
	tbl, err := delta.Open(e.paths[name])
	if err != nil {
		return err
	}
	snap, err := tbl.Snapshot(-1)
	if err != nil {
		return err
	}
	e.cat.Register(&catalog.DeltaTable{TableName: name, Tbl: tbl, Snap: snap})
	return nil
}

// writeDelta writes a generated table as a Delta table of files holding
// about fileRows rows each, one append commit per file, so staged scans
// split across tasks and data skipping has file statistics to prune by.
// A read-only table is written through the storage layer and then opened
// by the session; a table the workload appends to is created and filled
// through the session's own handle, which later appends reuse.
func (e *env) writeDelta(name, path string, mt *catalog.MemTable, spec setupSpec) (*photon.DeltaTable, error) {
	var appendFile func([]*vector.Batch) error
	var dt *photon.DeltaTable
	if spec.appendable {
		var err error
		if dt, err = e.sess.CreateDeltaTable(name, path, mt.Sch); err != nil {
			return nil, err
		}
		appendFile = func(bs []*vector.Batch) error {
			var rows [][]any
			for _, b := range bs {
				rows = append(rows, b.Rows()...)
			}
			return dt.AppendRows(rows)
		}
	} else {
		tbl, err := delta.Create(path, mt.Sch, nil)
		if err != nil {
			return nil, err
		}
		appendFile = func(bs []*vector.Batch) error { return tbl.Append(bs, nil) }
	}
	var chunk []*vector.Batch
	rows := 0
	for i, b := range mt.Batches {
		chunk = append(chunk, b)
		rows += b.NumActive()
		if rows >= spec.fileRows || i == len(mt.Batches)-1 {
			if err := appendFile(chunk); err != nil {
				return nil, err
			}
			chunk, rows = nil, 0
		}
	}
	if dt != nil {
		return dt, nil
	}
	return e.sess.OpenDeltaTable(name, path)
}

// setupTimed runs setup in fresh directories under base, at least
// minReps times and until setupBudget has been spent (at most maxReps),
// and returns the last environment together with each repetition's time.
// The earlier environments' files are removed before the next repetition.
func setupTimed(spec setupSpec, base string, minReps int) (*env, []float64, error) {
	var e *env
	var times []float64
	for i := 0; i < minReps || (sum(times) < setupBudget && i < maxReps); i++ {
		if e != nil {
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, nil, err
			}
			e = nil
		}
		runtime.GC() // each repetition starts without the last one's garbage
		start := time.Now()
		var err error
		e, err = setup(spec, filepath.Join(base, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, times, nil
}

// Set-up repetitions beyond the minimum, while their total stays under
// setupBudget seconds: cheap set-ups repeat more, for a steadier median.
const (
	setupBudget = 2.0
	maxReps     = 9
)
