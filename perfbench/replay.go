package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"photon/internal/catalog"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/shuffle"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/storage/lz4"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

// replayInput names the workload data the layer replays run on.
type replayInput struct {
	texts        []string // every statement text the workload sends
	stage        catalyst.StageConfig
	table        string // table the storage and shuffle replays encode
	rowsPerBlock int    // rows per shuffle block the traced run measured
	spans        *spanLog
}

// replayResult holds the timed layer replays.
type replayResult struct {
	parseUS, compileUS               float64
	htBuildNS, htProbeNS             float64
	shuffleWriteNS, shuffleReadNS    float64
	lz4CompressMBs, lz4DecompressMBs float64
	lz4AllocPerCall                  float64
	parquetDecodeNS, parquetWriteNS  float64
	deltaSnapshotMS, deltaCommitMS   float64
	deltaFiles, deltaVersions        float64
}

// replayReps is how often each replay repeats; the median repetition is
// reported.
const replayReps = 3

// timedMedian runs f reps times and returns the median duration.
func timedMedian(reps int, f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// replayLayers times direct calls to each layer's exported functions on
// the workload's own data.
func replayLayers(e *env, in replayInput) (replayResult, error) {
	var r replayResult
	steps := []struct {
		name string
		f    func() error
	}{
		{"replay.sql", func() error { return replaySQL(e, in, &r) }},
		{"replay.ht", func() error { return replayHT(e, &r) }},
		{"replay.shuffle", func() error { return replayShuffle(e, in, &r) }},
		{"replay.storage", func() error { return replayStorage(e, in, &r) }},
		{"replay.delta", func() error { return replayDelta(e, &r) }},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.f(); err != nil {
			return r, fmt.Errorf("%s: %w", s.name, err)
		}
		in.spans.add(s.name, "replay", start, time.Since(start))
	}
	return r, nil
}

// replaySQL times sql.Parse, and parameterization plus catalyst.Compile,
// on every statement text, against a catalog of the session's tables.
func replaySQL(e *env, in replayInput, r *replayResult) error {
	var parse, compile time.Duration
	n := 0
	for rep := 0; rep < 5; rep++ {
		for _, text := range in.texts {
			start := time.Now()
			stmt, err := sql.Parse(text)
			if err != nil {
				return err
			}
			mid := time.Now()
			raws := sql.Parameterize(stmt)
			if _, err := catalyst.Compile(e.cat, stmt, raws, in.stage); err != nil {
				return fmt.Errorf("compile %q: %w", text, err)
			}
			parse += mid.Sub(start)
			compile += time.Since(mid)
			n++
		}
	}
	r.parseUS = float64(parse.Microseconds()) / float64(n)
	r.compileUS = float64(compile.Microseconds()) / float64(n)
	return nil
}

// int64Col returns one int64 column of a generated table, batch by batch.
func int64Col(data *catalog.Catalog, table, col string) [][]int64 {
	mt := memTable(data, table)
	idx := mt.Sch.IndexOf(col)
	var out [][]int64
	for _, b := range mt.Batches {
		out = append(out, b.Vecs[idx].I64[:b.NumRows])
	}
	return out
}

// replayHT builds a join hash table on o_orderkey and probes it with
// l_orderkey, as the orders ⋈ lineitem joins do.
func replayHT(e *env, r *replayResult) error {
	build := int64Col(e.data, "orders", "o_orderkey")
	probe := int64Col(e.data, "lineitem", "l_orderkey")
	n := vector.DefaultBatchSize
	keys := vector.New(types.Int64Type, n)
	u := make([]uint64, n)
	hashes := make([]uint64, n)
	rowIDs := make([]int32, n)
	inserted := make([]bool, n)
	load := func(vals []int64) {
		copy(keys.I64, vals)
		for i, v := range vals {
			u[i] = uint64(v)
		}
		kernels.HashU64(u[:len(vals)], nil, false, nil, len(vals), hashes)
	}
	var tbl *ht.Table
	var buildRows, probeRows int
	bd, err := timedMedian(replayReps, func() error {
		tbl = ht.New([]types.DataType{types.Int64Type}, 0)
		buildRows = 0
		for _, vals := range build {
			load(vals)
			if err := tbl.InsertDup([]*vector.Vector{keys}, hashes, nil, len(vals), rowIDs, inserted); err != nil {
				return err
			}
			buildRows += len(vals)
		}
		return nil
	})
	if err != nil {
		return err
	}
	pd, err := timedMedian(replayReps, func() error {
		probeRows = 0
		for _, vals := range probe {
			load(vals)
			if err := tbl.Find([]*vector.Vector{keys}, hashes, nil, len(vals), rowIDs); err != nil {
				return err
			}
			probeRows += len(vals)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.htBuildNS = float64(bd.Nanoseconds()) / float64(buildRows)
	r.htProbeNS = float64(pd.Nanoseconds()) / float64(probeRows)
	return nil
}

// replayShuffle writes the workload's main table through a two-partition
// shuffle at the traced run's rows per block, then reads it back.
func replayShuffle(e *env, in replayInput, r *replayResult) error {
	mt := memTable(e.data, in.table)
	rpb := in.rowsPerBlock
	if rpb <= 0 || rpb > vector.DefaultBatchSize {
		rpb = vector.DefaultBatchSize
	}
	// Blocks are row ranges of the generated batches, selected in place.
	var blocks []*vector.Batch
	rows := 0
	for _, b := range mt.Batches {
		for lo := 0; lo < b.NumRows; lo += rpb {
			hi := min(lo+rpb, b.NumRows)
			sel := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
			blocks = append(blocks, vector.WrapBatch(mt.Sch, b.Vecs, sel, b.NumRows))
			rows += hi - lo
		}
	}
	dir := filepath.Join(e.dir, "replay-shuffle")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const parts = 2
	id := 0
	wd, err := timedMedian(replayReps, func() error {
		id++
		w, err := shuffle.NewWriter(dir, fmt.Sprint(id), 0, parts, shuffle.EncoderOptions{Adaptive: true})
		if err != nil {
			return err
		}
		for i, b := range blocks {
			if err := w.WritePartition(i%parts, b); err != nil {
				w.Abort()
				return err
			}
		}
		if err := w.Close(); err != nil {
			w.Abort()
			return err
		}
		return w.Commit()
	})
	if err != nil {
		return err
	}
	dst := vector.NewBatch(mt.Sch, vector.DefaultBatchSize)
	rd, err := timedMedian(replayReps, func() error {
		got := 0
		for p := 0; p < parts; p++ {
			rdr := shuffle.NewReader(dir, fmt.Sprint(id), 1, p, mt.Sch)
			for {
				ok, err := rdr.Next(dst)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				got += dst.NumRows
			}
		}
		if got != rows {
			return fmt.Errorf("read %d rows back, wrote %d", got, rows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.shuffleWriteNS = float64(wd.Nanoseconds()) / float64(rows)
	r.shuffleReadNS = float64(rd.Nanoseconds()) / float64(rows)
	return nil
}

// replayStorage times the Parquet writer and reader on the workload's
// main table, and LZ4 on the table's uncompressed Parquet bytes in 64 KiB
// blocks (the codec's unit on the write path).
func replayStorage(e *env, in replayInput, r *replayResult) error {
	mt := memTable(e.data, in.table)
	rows := 0
	for _, b := range mt.Batches {
		rows += b.NumActive()
	}
	encode := func(c parquet.Compression) ([]byte, error) {
		var buf bytes.Buffer
		w, err := parquet.NewWriter(&buf, mt.Sch, parquet.Options{Compression: c})
		if err != nil {
			return nil, err
		}
		for _, b := range mt.Batches {
			if err := w.WriteBatch(b); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var file []byte
	wd, err := timedMedian(replayReps, func() (err error) {
		file, err = encode(parquet.CompLZ4)
		return err
	})
	if err != nil {
		return err
	}
	rd, err := timedMedian(replayReps, func() error {
		rdr, err := parquet.NewReader(file)
		if err != nil {
			return err
		}
		bs, err := rdr.ReadAll(vector.DefaultBatchSize)
		if err != nil {
			return err
		}
		got := 0
		for _, b := range bs {
			got += b.NumRows
		}
		if got != rows {
			return fmt.Errorf("decoded %d rows, wrote %d", got, rows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.parquetWriteNS = float64(wd.Nanoseconds()) / float64(rows)
	r.parquetDecodeNS = float64(rd.Nanoseconds()) / float64(rows)

	raw, err := encode(parquet.CompNone)
	if err != nil {
		return err
	}
	const block = 64 << 10
	var srcs, comp [][]byte
	for lo := 0; lo < len(raw); lo += block {
		srcs = append(srcs, raw[lo:min(lo+block, len(raw))])
	}
	dst := make([]byte, lz4.CompressBound(block))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cd, err := timedMedian(replayReps, func() error {
		comp = comp[:0]
		for _, s := range srcs {
			comp = append(comp, append([]byte(nil), lz4.Compress(dst[:0], s)...))
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	// Allocation per Compress call, net of the copies kept above.
	kept := 0
	for _, c := range comp {
		kept += len(c)
	}
	calls := float64(replayReps * len(srcs))
	r.lz4AllocPerCall = (float64(ms1.TotalAlloc-ms0.TotalAlloc) - float64(replayReps*kept)) / calls
	out := make([]byte, block)
	dd, err := timedMedian(replayReps, func() error {
		for i, c := range comp {
			n, err := lz4.Decompress(out, c)
			if err != nil {
				return err
			}
			if n != len(srcs[i]) {
				return fmt.Errorf("lz4 block %d: %d bytes back, want %d", i, n, len(srcs[i]))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mb := float64(len(raw)) / (1 << 20)
	r.lz4CompressMBs = mb / cd.Seconds()
	r.lz4DecompressMBs = mb / dd.Seconds()
	return nil
}

// replayDelta measures the Delta tables the workload reads: snapshot
// reconstruction from the log, the live file and version counts, and the
// commit of a small append to a scratch table. Workloads without Delta
// tables report zeros.
func replayDelta(e *env, r *replayResult) error {
	if len(e.paths) == 0 {
		return nil
	}
	names := make([]string, 0, len(e.paths))
	for name := range e.paths {
		names = append(names, name)
	}
	sort.Strings(names)
	var snaps []float64
	for _, name := range names {
		var snap *delta.Snapshot
		d, err := timedMedian(replayReps, func() error {
			tbl, err := delta.Open(e.paths[name])
			if err != nil {
				return err
			}
			snap, err = tbl.Snapshot(-1)
			return err
		})
		if err != nil {
			return err
		}
		snaps = append(snaps, ms(d))
		r.deltaFiles += float64(len(snap.Files))
		r.deltaVersions += float64(snap.Version + 1)
	}
	r.deltaSnapshotMS = sum(snaps)

	mt := memTable(e.data, "orders")
	small := vector.WrapBatch(mt.Sch, mt.Batches[0].Vecs, []int32{0, 1, 2, 3}, mt.Batches[0].NumRows)
	tbl, err := delta.Create(filepath.Join(e.dir, "replay-delta"), mt.Sch, nil)
	if err != nil {
		return err
	}
	var commits []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := tbl.Append([]*vector.Batch{small}, nil); err != nil {
			return err
		}
		commits = append(commits, ms(time.Since(start)))
	}
	r.deltaCommitMS = median(commits)
	return nil
}
