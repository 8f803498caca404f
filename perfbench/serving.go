package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"photon"
	"photon/internal/types"
)

// Statement kinds of the serving mix and their shares, in percent.
const (
	kindLookup = iota // prepared point lookup on orders
	kindJoin          // prepared nation/region join lookup
	kindAgg           // ad-hoc grouped aggregate with varying literals
	kindAppend        // AppendRows of a small batch of new orders
	numKinds
)

var kindNames = [numKinds]string{"lookup", "join", "agg", "append"}

// kindShare is the mix in percent: 70 / 18 / 10 / 2.
var kindShare = [numKinds]int{70, 18, 10, 2}

const (
	servingClients  = 2    // load-generator goroutines (= nproc on the reference box)
	servingFileRows = 2048 // rows per orders data file at set-up
	appendBatch     = 4    // orders per append
	scriptLen       = 200  // statements per closed-loop pass
	openShare       = 0.75 // share of the measured time spent open-loop
	servingSF       = 0.01
	// openRate is the open-loop arrival rate, 1/s: about 37% of the
	// closed-loop max_qps of a 30 s run (650/s) on the reference machine.
	// At half, a host slowdown of 2x, which the reference machine shows
	// now and then, saturated the two clients: the backlog never drained
	// and the open-loop median rose from 2 ms to 100 ms. At this rate the
	// same slowdown stays below saturation, and a 30 s run still makes
	// more than 100 appends.
	openRate = 240
)

const (
	lookupSQL = "SELECT o_custkey, o_orderstatus, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = ?"
	joinSQL   = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = ?"
	aggSQL    = "SELECT o_orderpriority, count(*), sum(o_totalprice) FROM orders WHERE o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' GROUP BY o_orderpriority ORDER BY o_orderpriority"
)

// request is one generated statement: its kind, the random value its
// parameters derive from, and (open loop) when it is due.
type request struct {
	kind int
	u    uint64
	due  time.Duration
}

// order is the part of an orders row the lookups check.
type order struct {
	cust   int64
	status string
	price  types.Decimal128
	date   int32
}

// aggCell accumulates one (month, priority) cell of the expected aggregate.
type aggCell struct {
	n   int64
	sum types.Decimal128
}

// servingRun drives one session with the serving mix and checks every
// result: lookups against the generated or appended row, join lookups
// against the fixed nation/region pairs, aggregates against totals
// computed from the generated orders.
type servingRun struct {
	o            options
	e            *env
	lookup, join *photon.PreparedStatement
	orders       *photon.DeltaTable
	base         []order // generated orders, by o_orderkey-1
	numCust      int64
	pairs        map[int64][2]string // n_nationkey → (n_name, r_name)
	months       []int32             // first day of each month, 1992-01 .. 1999-01
	prios        []string
	agg          [][]aggCell // [month][priority]
	appended     atomic.Int64
	writeMu      sync.Mutex // appends come from a single writer at a time
	tr           *traceAcc
	adhoc        sync.Map // ad-hoc texts sent while traced
	logged       atomic.Int64
}

// outcome is one executed statement as the generator saw it.
type outcome struct {
	kind      int
	lat, late time.Duration // from the due time; start lateness
	ok        bool
}

func runServing(o options) (*report, error) {
	spec := setupSpec{sf: servingSF, tables: servingTables, useDelta: true, appendable: true,
		fileRows: servingFileRows, cfg: photon.Config{Parallelism: 2}}
	e, setupTimes, err := setupTimed(spec, o.base, o.setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s, err := newServingRun(o, e)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x5e4f))
	script := makeScript(rng)
	// Warm-up: one closed-loop pass, checked and counted, not timed.
	warm := s.closedLoop(script, 0)
	s.count(rep, warm.outs)

	heap := startHeapSampler(time.Second)
	defer heap.Stop()
	if !o.trace {
		open := s.openLoop(makeRequests(rng, int(openRate*o.seconds*openShare), openRate))
		closed := s.closedLoop(script, o.seconds*(1-openShare))
		s.count(rep, open)
		s.count(rep, closed.outs)
		s.endToEnd(rep, setupTimes, append(heap.Peaks(), heap.Cut()), open, closed)
		return rep, nil
	}
	// Traced run: half the time untraced (the overhead base), half traced.
	half := o.seconds / 2
	open := s.openLoop(makeRequests(rng, int(openRate*half*openShare), openRate))
	closed := s.closedLoop(script, half*(1-openShare))
	s.count(rep, open)
	s.count(rep, closed.outs)
	s.tr = newTraceAcc(spec.cfg.Parallelism)
	var late []float64
	for _, x := range open {
		late = append(late, ms(x.late))
	}
	s.tr.lateP99 = quantile(late, 0.99)
	before := snapshotRegistry(e.sess)
	start := time.Now()
	topen := s.openLoop(makeRequests(rng, int(openRate*half*openShare), openRate))
	tclosed := s.closedLoop(script, half*(1-openShare))
	s.tr.wall = time.Since(start)
	s.count(rep, topen)
	s.count(rep, tclosed.outs)
	s.tr.passes = len(tclosed.passes)
	s.tr.overhead = median(tclosed.passes)/median(closed.passes) - 1
	s.tr.reg = diffRegistry(before, snapshotRegistry(e.sess))
	for _, name := range servingTables {
		if err := e.refreshCat(name); err != nil {
			return nil, err
		}
	}
	texts := []string{strings.Replace(lookupSQL, "?", "1", 1), strings.Replace(joinSQL, "?", "1", 1)}
	s.adhoc.Range(func(k, _ any) bool { texts = append(texts, k.(string)); return true })
	sort.Strings(texts[2:])
	rp, err := replayLayers(e, replayInput{texts: texts, stage: stageConfigOf(spec.cfg),
		table: "orders", rowsPerBlock: s.tr.rowsPerBlock(), spans: o.spans})
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	rep.layer = s.tr.metrics(rp)
	return rep, nil
}

func newServingRun(o options, e *env) (*servingRun, error) {
	s := &servingRun{o: o, e: e, orders: e.deltas["orders"], numCust: int64(e.gen.NumCustomers),
		pairs: map[int64][2]string{}}
	var err error
	if s.lookup, err = e.sess.Prepare(lookupSQL); err != nil {
		return nil, err
	}
	if s.join, err = e.sess.Prepare(joinSQL); err != nil {
		return nil, err
	}
	regions := map[int64]string{}
	for _, b := range memTable(e.data, "region").Batches {
		for i := 0; i < b.NumRows; i++ {
			regions[b.Vecs[0].I64[i]] = string(b.Vecs[1].Str[i])
		}
	}
	for _, b := range memTable(e.data, "nation").Batches {
		for i := 0; i < b.NumRows; i++ {
			s.pairs[b.Vecs[0].I64[i]] = [2]string{string(b.Vecs[1].Str[i]), regions[b.Vecs[2].I64[i]]}
		}
	}
	for y := 1992; y <= 1999; y++ {
		for m := time.January; m <= time.December && (y < 1999 || m == time.January); m++ {
			s.months = append(s.months, int32(time.Date(y, m, 1, 0, 0, 0, 0, time.UTC).Unix()/86400))
		}
	}
	s.prios = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	prioIdx := map[string]int{}
	for i, p := range s.prios {
		prioIdx[p] = i
	}
	s.agg = make([][]aggCell, len(s.months))
	for i := range s.agg {
		s.agg[i] = make([]aggCell, len(s.prios))
	}
	mt := memTable(e.data, "orders")
	sch := mt.Sch
	key, cust, status := sch.IndexOf("o_orderkey"), sch.IndexOf("o_custkey"), sch.IndexOf("o_orderstatus")
	price, date, prio := sch.IndexOf("o_totalprice"), sch.IndexOf("o_orderdate"), sch.IndexOf("o_orderpriority")
	for _, b := range mt.Batches {
		for i := 0; i < b.NumRows; i++ {
			if b.Vecs[key].I64[i] != int64(len(s.base)+1) {
				return nil, fmt.Errorf("generated o_orderkey %d out of sequence", b.Vecs[key].I64[i])
			}
			r := order{cust: b.Vecs[cust].I64[i], status: string(b.Vecs[status].Str[i]),
				price: b.Vecs[price].Dec[i], date: b.Vecs[date].I32[i]}
			s.base = append(s.base, r)
			m := sort.Search(len(s.months), func(j int) bool { return s.months[j] > r.date }) - 1
			c := &s.agg[m][prioIdx[string(b.Vecs[prio].Str[i])]]
			c.n++
			c.sum = c.sum.Add(r.price)
		}
	}
	return s, nil
}

// appendedOrder is the deterministic row an append writes for key k. Its
// date lies after every generated order, outside every aggregate window.
func (s *servingRun) appendedOrder(k int64) order {
	return order{cust: 1 + k%s.numCust, status: "O",
		price: types.DecimalFromInt64(100_00 + k%997*100 + 42), date: s.months[len(s.months)-1] + int32(k%300)}
}

// makeRequests draws n open-loop requests with Poisson arrival times at
// rate. Kinds come in shuffled blocks of 50 holding exactly each kind's
// share, so every run of a given length appends the same number of times
// and reaches the same table state.
func makeRequests(rng *rand.Rand, n int, rate float64) []request {
	const block = 50
	out := make([]request, 0, n)
	var t float64
	for len(out) < n {
		var kinds []int
		for k := range kindShare {
			for i := 0; i < block*kindShare[k]/100; i++ {
				kinds = append(kinds, k)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds[:min(len(kinds), n-len(out))] {
			t += rng.ExpFloat64() / rate
			out = append(out, request{kind: k, u: rng.Uint64(), due: time.Duration(t * float64(time.Second))})
		}
	}
	return out
}

// makeScript draws the closed-loop script: exactly each kind's share of
// scriptLen statements, aggregate windows cycling through 1..12 months,
// in a seeded order. Fixing the composition keeps pass times comparable
// across seeds; only keys, order and window positions vary.
func makeScript(rng *rand.Rand) []request {
	var out []request
	for k := range kindShare {
		for i := 0; i < scriptLen*kindShare[k]/100; i++ {
			out = append(out, request{kind: k, u: rng.Uint64()/12*12 + uint64(i%12)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exec runs one request and checks its result; the error says what went
// wrong.
func (s *servingRun) exec(ctx context.Context, r request) error {
	switch r.kind {
	case kindLookup:
		key := int64(1 + r.u%uint64(len(s.base)))
		want := s.base[key-1]
		if n := s.appended.Load(); r.u%10 == 0 && n > 0 {
			key = int64(len(s.base)) + 1 + int64(r.u/10%uint64(n))
			want = s.appendedOrder(key)
		}
		res, st, err := s.lookup.ExecuteStats(ctx, key)
		s.note(st)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], []any{want.cust, want.status, want.price, want.date}) {
			return fmt.Errorf("lookup %d: got %v, want %v", key, res.Rows, want)
		}
	case kindJoin:
		key := int64(r.u % 25)
		res, st, err := s.join.ExecuteStats(ctx, key)
		s.note(st)
		if err != nil {
			return err
		}
		if want := s.pairs[key]; len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], []any{want[0], want[1]}) {
			return fmt.Errorf("join lookup %d: got %v, want %v", key, res.Rows, want)
		}
	case kindAgg:
		// A window of 1..12 whole months inside the generated date range.
		width := 1 + int(r.u%12)
		first := int(r.u / 12 % uint64(len(s.months)-1-width))
		text := fmt.Sprintf(aggSQL, types.FormatDate(s.months[first]), types.FormatDate(s.months[first+width]))
		var res *photon.Result
		var err error
		if s.tr != nil {
			s.adhoc.Store(text, true)
			var p *photon.Profile
			if p, err = s.e.sess.SQLWithProfile(text); err == nil {
				res = p.Result
				s.tr.add(0, p)
			}
		} else {
			res, err = s.e.sess.SQL(text)
		}
		if err != nil {
			return err
		}
		if want := s.expectAgg(first, first+width); len(res.Rows)+len(want) > 0 && !reflect.DeepEqual(res.Rows, want) {
			return fmt.Errorf("%s: got %v, want %v", text, res.Rows, want)
		}
	default:
		return s.appendOrders(r)
	}
	return nil
}

func (s *servingRun) note(st *photon.QueryStats) {
	if s.tr != nil && st != nil {
		s.tr.mu.Lock()
		s.tr.addStats(0, st)
		s.tr.mu.Unlock()
	}
}

// expectAgg is the aggregate's answer over months [lo, hi): one row per
// priority present, in priority order.
func (s *servingRun) expectAgg(lo, hi int) [][]any {
	var out [][]any
	for p, name := range s.prios {
		var c aggCell
		for m := lo; m < hi; m++ {
			c.n += s.agg[m][p].n
			c.sum = c.sum.Add(s.agg[m][p].sum)
		}
		if c.n > 0 {
			out = append(out, []any{name, c.n, c.sum})
		}
	}
	return out
}

// appendOrders commits a batch of new orders; their keys become visible to
// lookups only once the commit returns.
func (s *servingRun) appendOrders(r request) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := int64(len(s.base)) + s.appended.Load() + 1
	rows := make([][]any, appendBatch)
	for i := range rows {
		k := next + int64(i)
		o := s.appendedOrder(k)
		rows[i] = []any{k, o.cust, o.status, o.price, o.date, s.prios[r.u%5],
			"Clerk#000000001", int32(0), "appended by the serving mix"}
	}
	if err := s.orders.AppendRows(rows); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	s.appended.Add(appendBatch)
	return nil
}

// openLoop issues reqs at their due times from servingClients goroutines.
// A request whose goroutine is still busy starts late; its latency counts
// from the due time, so the wait shows.
func (s *servingRun) openLoop(reqs []request) []outcome {
	var next atomic.Int64
	outs := make([][]outcome, servingClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < servingClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				r := reqs[i]
				due := start.Add(r.due)
				time.Sleep(time.Until(due))
				begin := time.Now()
				ok := s.check(s.exec(ctx, r))
				end := time.Now()
				s.o.spans.add(kindNames[r.kind], "statement", begin, end.Sub(begin))
				outs[c] = append(outs[c], outcome{kind: r.kind, lat: end.Sub(due), late: begin.Sub(due), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// closedResult is a closed-loop phase: every outcome and each pass's wall
// time in seconds.
type closedResult struct {
	outs   []outcome
	passes []float64
}

// closedLoop runs passes of script, servingClients goroutines splitting
// each pass, back to back until budget seconds are spent (at least one
// pass; at least two when budget > 0).
func (s *servingRun) closedLoop(script []request, budget float64) closedResult {
	var res closedResult
	begin := time.Now()
	last := 0.0
	for n := 0; n < 1 || (budget > 0 && (n < 2 || time.Since(begin).Seconds()+last <= budget)); n++ {
		outs := make([][]outcome, servingClients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < servingClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx := context.Background()
				for i := c; i < len(script); i += servingClients {
					t0 := time.Now()
					ok := s.check(s.exec(ctx, script[i]))
					outs[c] = append(outs[c], outcome{kind: script[i].kind, lat: time.Since(t0), ok: ok})
				}
			}(c)
		}
		wg.Wait()
		last = time.Since(start).Seconds()
		res.passes = append(res.passes, last)
		for _, o := range outs {
			res.outs = append(res.outs, o...)
		}
	}
	return res
}

// check logs the first few failures and reports success.
func (s *servingRun) check(err error) bool {
	if err != nil && s.logged.Add(1) <= 5 {
		s.o.logf("serving_mix: %v", err)
	}
	return err == nil
}

// count adds outcomes to the report's attempted and failed totals.
func (s *servingRun) count(rep *report, outs []outcome) {
	for _, o := range outs {
		rep.attempted++
		if !o.ok {
			rep.failed++
		}
	}
}

func (s *servingRun) endToEnd(rep *report, setupTimes, peaks []float64, open []outcome, closed closedResult) {
	var byKind [numKinds][]float64
	var reads []float64
	for _, o := range open {
		byKind[o.kind] = append(byKind[o.kind], ms(o.lat))
		if o.kind != kindAppend {
			reads = append(reads, ms(o.lat))
		}
	}
	var meds []float64
	for k := range byKind {
		meds = append(meds, median(byKind[k]))
	}
	rep.e2e = []metricVal{
		{"setup_s", "s", median(setupTimes)},
		{"heap_peak_mb", "MB", median(peaks)},
		{"suite_s", "s", median(closed.passes)},
		{"query_geomean_ms", "ms", geomean(meds)},
		{"read_p50_ms", "ms", quantile(reads, 0.5)},
		{"max_qps", "1/s", float64(len(closed.outs)) / sum(closed.passes)},
	}
	rep.extra = []metricVal{
		{"read_p95_ms", "ms", quantile(reads, 0.95)},
		{"read_p99_ms", "ms", quantile(reads, 0.99)},
		{"lookup_p50_ms", "ms", median(byKind[kindLookup])},
		{"write_p50_ms", "ms", median(byKind[kindAppend])},
		{"write_p90_ms", "ms", quantile(byKind[kindAppend], 0.9)},
		{"appends", "count", float64(len(byKind[kindAppend]))},
	}
}
