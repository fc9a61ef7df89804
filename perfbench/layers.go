package main

// Per-layer measurement for the traced runs: direct calls into the
// layers with a span around each, and the statistics the layers expose.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ninjagap/internal/compiler"
	ninjaexec "ninjagap/internal/exec"
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
	"ninjagap/internal/submit"
)

// engineAcc accumulates the exec and cache layers' statistics over
// directly measured cells.
type engineAcc struct {
	runMs                             []float64
	dyn, l1Acc, l1Miss, llcMiss, dram uint64
	fused0, replay0                   uint64
}

func newEngineAcc() *engineAcc {
	return &engineAcc{fused0: ninjaexec.FusedInstrs(), replay0: ninjaexec.ReplayedInstrs()}
}

// run prepares, executes and validates one cell with a span around each
// call. Serial versions run one thread, the rest every hardware thread,
// as in the scheduler.
func (a *engineAcc) run(rep *report, tr *tracer, b kernels.Benchmark, v kernels.Version, m *machine.Machine, n int) {
	rep.attempted++
	trace := tr.newTrace()
	root := tr.begin(trace, 0, "cell")
	defer tr.end(root)
	sp := tr.begin(trace, root, "kernels.prepare")
	inst, err := b.Prepare(v, m, n)
	tr.end(sp)
	if err != nil {
		rep.fail("prepare %s/%s on %s: %v", b.Name(), v, m.Name, err)
		return
	}
	threads := m.HWThreads()
	if v.Serial() {
		threads = 1
	}
	sp = tr.begin(trace, root, "exec.run")
	t0 := time.Now()
	res, err := ninjaexec.Run(inst.Prog, inst.Arrays, m, ninjaexec.Options{Threads: threads})
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		rep.fail("run %s/%s on %s: %v", b.Name(), v, m.Name, err)
		return
	}
	sp = tr.begin(trace, root, "kernels.check")
	err = inst.Check()
	tr.end(sp)
	if err != nil {
		rep.fail("check %s/%s on %s: %v", b.Name(), v, m.Name, err)
		return
	}
	a.runMs = append(a.runMs, ms(d))
	a.dyn += res.DynInstrs
	a.dram += res.DRAMBytes
	if cs := res.CacheStats; len(cs) > 0 {
		a.l1Acc += cs[0].Accesses
		a.l1Miss += cs[0].Misses
		a.llcMiss += cs[len(cs)-1].Misses
	}
}

func (a *engineAcc) report(rep *report) {
	n := len(a.runMs)
	rep.set("exec.run_ms", "ms", sum(a.runMs), n)
	rep.set("exec.run_ms.p50", "ms", median(a.runMs), n)
	if s := sum(a.runMs) / 1e3; s > 0 {
		rep.set("exec.sim_mips", "MIPS", float64(a.dyn)/s/1e6, n)
	}
	rep.set("exec.dyn_instrs", "count", float64(a.dyn), n)
	if a.dyn > 0 {
		rep.set("exec.fused_frac", "ratio", float64(ninjaexec.FusedInstrs()-a.fused0)/float64(a.dyn), n)
		rep.set("exec.replay_frac", "ratio", float64(ninjaexec.ReplayedInstrs()-a.replay0)/float64(a.dyn), n)
	}
	rep.set("cache.l1_accesses", "count", float64(a.l1Acc), n)
	if a.l1Acc > 0 {
		rep.set("cache.l1_miss_rate", "ratio", float64(a.l1Miss)/float64(a.l1Acc), n)
	}
	rep.set("cache.llc_misses", "count", float64(a.llcMiss), n)
	rep.set("cache.dram_mb", "MB", float64(a.dram)/(1<<20), n)
}

// tracedPhase is the traced part of a daemon workload's traced run: the
// closed loop with spans and a CPU profile, with the memo, store and
// service counters around it reported per request; keep judges (and may
// keep) its replies. Tracing overhead is then measured over the same
// stream, judged by check: untraced and traced segments alternate for
// another dur.
func tracedPhase(rep *report, o options, d *daemon, c *client, tr *tracer, dur time.Duration,
	next func(int) request, keep, check func(int, request, response) error) error {
	prof := &profiler{}
	d.tr.Store(tr)
	hits0, misses0 := gap.MemoStats()
	disk0, _, _ := gap.CacheDirStats()
	sHits0, _, sPuts0 := gap.PersistentStore().Stats()
	if err := prof.start(); err != nil {
		return err
	}
	loop := closedLoop(c, dur, 0, next, keep, tr)
	if err := prof.stop(); err != nil {
		return err
	}
	hits1, misses1 := gap.MemoStats()
	disk1, _, _ := gap.CacheDirStats()
	sHits1, _, sPuts1 := gap.PersistentStore().Stats()
	loop.account(rep, o.workload)

	n := len(loop.outcomes)
	perReq := func(x int64) float64 { return float64(x) / float64(n) }
	lookups := float64(hits1 - hits0 + misses1 - misses0)
	rep.set("gap.cells_computed", "count", perReq(misses1-misses0-(disk1-disk0)), n)
	if lookups > 0 {
		rep.set("gap.memo_hit_ratio", "ratio", float64(hits1-hits0)/lookups, n)
		rep.set("gap.disk_hit_ratio", "ratio", float64(disk1-disk0)/lookups, n)
	}
	rep.set("store.hits", "count", perReq(sHits1-sHits0), n)
	rep.set("store.puts", "count", perReq(sPuts1-sPuts0), n)
	if err := prof.report(rep, o, n); err != nil {
		return err
	}

	body, err := getBody(c, "/metrics")
	if err != nil {
		return err
	}
	var m struct {
		Requests struct {
			Rejected int64 `json:"rejected_queue_full"`
			Timeouts int64 `json:"timeouts"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return err
	}
	rep.set("serve.rejected_503", "count", float64(m.Requests.Rejected), 1)
	rep.set("serve.timeouts", "count", float64(m.Requests.Timeouts), 1)

	// Overhead: two untraced and two traced segments, alternating, each
	// traced one with its own spans and profile, discarded.
	var secs, reqs [2]float64
	first := n
	for seg := 0; seg < 4; seg++ {
		traced := seg%2 == 1
		var segTr *tracer
		segProf := &profiler{}
		if traced {
			segTr = newTracer()
			if err := segProf.start(); err != nil {
				return err
			}
		}
		d.tr.Store(segTr)
		l := closedLoop(c, dur/4, first, next, check, segTr)
		if traced {
			if err := segProf.stop(); err != nil {
				return err
			}
		}
		l.account(rep, o.workload)
		first += len(l.outcomes)
		k := seg % 2
		secs[k] += l.elapsed
		reqs[k] += float64(len(l.outcomes))
	}
	d.tr.Store(nil)
	rep.set("trace.overhead_frac", "ratio", (secs[1]/reqs[1])/(secs[0]/reqs[0])-1, int(reqs[0]+reqs[1]))
	return nil
}

// frontEndMetrics calls the lang and compiler layers directly on the
// traced submissions' sources.
func frontEndMetrics(rep *report, tr *tracer, sources []string) {
	var normUs, nodes []float64
	compileUs := map[string][]float64{}
	loops, vectorized := 0, 0
	for _, src := range sources {
		trace := tr.newTrace()
		rep.attempted++
		t0 := time.Now()
		sp := tr.begin(trace, 0, "lang.normalize")
		_, k, err := lang.Normalize(src)
		tr.end(sp)
		normUs = append(normUs, float64(time.Since(t0))/1e3)
		if err != nil {
			rep.fail("lang.Normalize: %v", err)
			continue
		}
		sp = tr.begin(trace, 0, "lang.analyze")
		st := lang.Analyze(k)
		tr.end(sp)
		nodes = append(nodes, float64(st.Nodes))
		for _, level := range compiler.Levels() {
			opt, err := compiler.ByLevel(level)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			t0 := time.Now()
			sp := tr.begin(trace, 0, "compiler.compile/"+level)
			res, err := compiler.Compile(k, opt)
			tr.end(sp)
			compileUs[level] = append(compileUs[level], float64(time.Since(t0))/1e3)
			if err != nil {
				rep.fail("compile at %s: %v", level, err)
				continue
			}
			for _, l := range res.Report.Loops {
				loops++
				if l.Vectorized {
					vectorized++
				}
			}
		}
	}
	rep.set("lang.normalize_us", "us", median(normUs), len(normUs))
	rep.set("lang.ast_nodes", "count", median(nodes), len(nodes))
	for level, us := range compileUs {
		rep.set("compiler.compile_us."+level, "us", median(us), len(us))
	}
	if loops > 0 {
		rep.set("compiler.vectorized_frac", "ratio", float64(vectorized)/float64(loops), loops)
	}
}

// storedCell is a cell the daemon persisted, with the check flag that is
// part of its key.
type storedCell struct {
	cell      gap.Cell
	skipCheck bool
}

// submittedCells lists the cells of a default submission of src.
func submittedCells(src string) ([]storedCell, error) {
	b, err := kernels.FromSource(src)
	if err != nil {
		return nil, err
	}
	var out []storedCell
	for _, m := range machine.All() {
		for _, v := range kernels.SubmitVersions() {
			out = append(out, storedCell{gap.Cell{Bench: b, Version: v, Machine: m, N: b.DefaultN()}, true})
		}
	}
	return out, nil
}

// probeStore reads each cell's entry from the persistent store, with a
// span around each read; every entry must be there.
func probeStore(rep *report, tr *tracer, cells []storedCell) {
	st := gap.PersistentStore()
	var us []float64
	for _, c := range cells {
		key := gap.CellKeyString(c.cell, c.skipCheck)
		rep.attempted++
		t0 := time.Now()
		sp := tr.begin(tr.newTrace(), 0, "store.get")
		_, ok := st.Get(key)
		tr.end(sp)
		us = append(us, float64(time.Since(t0))/1e3)
		if !ok {
			rep.fail("store: no persisted entry for %s", key)
		}
	}
	rep.set("store.get_us", "us", median(us), len(us))
}

// submission is a traced /v1/submit call and the bytes the daemon sent.
type submission struct {
	source string
	body   []byte
}

// rederive runs each submission through submit.Service.Process on a
// fresh service, on as many goroutines as the loop had clients, and
// compares the bytes with the daemon's reply.
func rederive(rep *report, tr *tracer, subs []submission) {
	svc := submit.NewService(submit.DefaultLimits())
	procMs := make([]float64, len(subs))
	hit := make([]bool, len(subs))
	computed := make([]int, len(subs))
	errs := make([]error, len(subs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(subs) {
					return
				}
				t0 := time.Now()
				sp := tr.begin(tr.newTrace(), 0, "submit.process")
				out, err := svc.Process(context.Background(), submit.Request{Source: subs[j].source}, gap.Config{Jobs: daemonJobs})
				tr.end(sp)
				procMs[j] = ms(time.Since(t0))
				if err == nil {
					hit[j], computed[j] = out.MemoHit, out.Computed
					if !bytes.Equal(out.Body, subs[j].body) {
						err = errRederive
					}
				}
				errs[j] = err
			}
		}()
	}
	wg.Wait()
	hits, cells := 0, 0
	for j, err := range errs {
		rep.attempted++
		if err != nil {
			rep.fail("re-derived submission %d: %v", j, err)
		}
		if hit[j] {
			hits++
		}
		cells += computed[j]
	}
	n := len(subs)
	rep.set("submit.process_ms", "ms", median(procMs), n)
	if n > 0 {
		rep.set("submit.memo_hit_ratio", "ratio", float64(hits)/float64(n), n)
		rep.set("submit.computed_cells", "count", float64(cells)/float64(n), n)
	}
}

var errRederive = errors.New("Process bytes differ from the daemon's reply")

// spanMetrics reports the per-call timings the spans hold, as medians
// per call: driver dispatch and emit, cell preparation and checking, and
// the service's handler time and the HTTP time around it.
func spanMetrics(rep *report, spans []span) {
	byName := map[string][]float64{}
	handlerByTrace := map[int]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		byName[s.Name] = append(byName[s.Name], d)
		if s.Name == "serve.handler" {
			handlerByTrace[s.Trace] = d
		}
	}
	var httpMs []float64
	for _, s := range spans {
		if h, ok := handlerByTrace[s.Trace]; ok && s.Name == "client.request" {
			httpMs = append(httpMs, float64(s.End-s.Start)/1e6-h)
		}
	}
	if len(httpMs) > 0 {
		rep.set("serve.http_ms", "ms", median(httpMs), len(httpMs))
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := byName[name]
		switch {
		case strings.HasPrefix(name, "gap.dispatch/"):
			rep.set("gap.dispatch_ms."+strings.TrimPrefix(name, "gap.dispatch/"), "ms", median(d), len(d))
		case strings.HasPrefix(name, "report.emit/"):
			rep.set("report.emit_ms."+strings.ReplaceAll(strings.TrimPrefix(name, "report.emit/"), "/", "."), "ms", median(d), len(d))
		case name == "kernels.prepare" || name == "kernels.check":
			rep.set(name+"_ms", "ms", median(d), len(d))
		case name == "serve.handler":
			rep.set("serve.handler_ms", "ms", median(d), len(d))
		}
	}
}
