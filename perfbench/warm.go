package main

// The warm workload: the read side of the daemon's caches. Set-up fills
// a daemon's cache directory with submissions, figures and measured
// cells, then "restarts" onto it; the timed loop replays a seeded mix of
// figure, table, snapshot, measure and resubmission requests, all of
// which must be served from the caches.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"sync"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/submit"
)

const (
	// warmKernels is how many kernels set-up submits: one per length
	// stratum of the generator.
	warmKernels  = lengthStrata
	warmMeasures = 24  // /v1/measure cells requested during set-up
	warmBlock    = 512 // a warm "pass": this many consecutive replies
	// warmSetups is how many cold set-ups set-up time and peak RSS are
	// the median of: one in this process, the rest in child processes.
	warmSetups = 3
	// warmRenderRounds is how often the traced run renders every driver
	// directly from the warm memo, for per-driver medians.
	warmRenderRounds = 5
)

// warmSet is the set-up's requests and the first reply to each.
type warmSet struct {
	gen      generator
	kernels  []genKernel
	gets     []request // figures, tables and the snapshot
	measures []request
	first    map[string][]byte // request key -> first reply body
}

func newWarmSet(seed int64) *warmSet {
	s := &warmSet{gen: generator{seed: seed, stream: 2}, first: map[string][]byte{}}
	for i := 0; i < warmKernels; i++ {
		s.kernels = append(s.kernels, s.gen.kernel(i))
	}
	for _, id := range gap.DriverIDs() {
		kind := "figure"
		if id == "table1" || id == "table2" {
			kind = "table"
		}
		p := "/v1/" + kind + "/" + id
		s.gets = append(s.gets, request{method: "GET", path: p, key: p})
	}
	s.gets = append(s.gets, request{method: "GET", path: "/v1/snapshot", key: "/v1/snapshot"})
	r := s.gen.rng(20, 0)
	seen := map[string]bool{}
	benches, versions, machines := kernels.All(), kernels.Versions(), machine.All()
	for len(s.measures) < warmMeasures {
		q := url.Values{}
		q.Set("bench", benches[r.Intn(len(benches))].Name())
		q.Set("version", versions[r.Intn(len(versions))].String())
		q.Set("machine", machines[r.Intn(len(machines))].Name)
		p := "/v1/measure?" + q.Encode()
		if !seen[p] {
			seen[p] = true
			s.measures = append(s.measures, request{method: "GET", path: p, key: p})
		}
	}
	return s
}

// next is request i of the timed mix: in every block of ten, four
// figure, table or snapshot GETs, three measure repeats and three
// resubmissions reformatted at random.
func (s *warmSet) next(i int) request {
	r := s.gen.rng(21, int64(i))
	switch slot := s.gen.stratum(22, i, 10); {
	case slot < 4:
		return s.gets[r.Intn(len(s.gets))]
	case slot < 7:
		return s.measures[r.Intn(len(s.measures))]
	default:
		k := r.Intn(len(s.kernels))
		rq := submitRequest(s.kernels[k].Reformat(r))
		rq.key = fmt.Sprintf("submit/%d", k)
		return rq
	}
}

func submitRequest(src string) request {
	return request{method: "POST", path: "/v1/submit", body: src}
}

// checkSubmit accepts a submission reply that parses and carries one cell
// per machine and level, each with positive simulated seconds.
func checkSubmit(resp response) error {
	if err := statusOK(resp); err != nil {
		return err
	}
	var r submit.Response
	if err := json.Unmarshal(resp.body, &r); err != nil {
		return fmt.Errorf("reply does not parse: %v", err)
	}
	want := len(machine.All()) * len(kernels.SubmitVersions())
	if len(r.Cells) != want {
		return fmt.Errorf("reply has %d cells, want %d", len(r.Cells), want)
	}
	for _, c := range r.Cells {
		if !(c.Seconds > 0) {
			return fmt.Errorf("cell %s/%s has %v simulated seconds", c.Machine, c.Version, c.Seconds)
		}
	}
	return nil
}

// check accepts a reply byte-identical to the first reply to the same
// request; a resubmission must also report that it computed no cells.
func (s *warmSet) check(_ int, rq request, resp response) error {
	if err := statusOK(resp); err != nil {
		return err
	}
	if !bytes.Equal(resp.body, s.first[rq.key]) {
		return fmt.Errorf("reply differs from the first reply to %s", rq.key)
	}
	if rq.method == "POST" {
		if n := resp.header.Get("X-Ninjagap-Computed-Cells"); n != "0" {
			return fmt.Errorf("resubmission computed %s cells", n)
		}
	}
	return nil
}

// warmSetup fills a fresh cache directory through one daemon, then
// restarts: it drops the memory tiers and serves a new daemon over the
// same directory. It returns the seconds all of that took.
func warmSetup(o options, s *warmSet, traced bool) (*daemon, string, float64, error) {
	t0 := time.Now()
	dir, err := cacheRoot(o)
	if err != nil {
		return nil, "", 0, err
	}
	d, err := startDaemon(false)
	if err != nil {
		return nil, dir, 0, err
	}
	c := newClient(d.url)
	for k, gk := range s.kernels {
		resp, err := c.do(submitRequest(gk.Source()), "")
		if err == nil {
			err = checkSubmit(resp)
		}
		if err != nil {
			c.close()
			return d, dir, 0, fmt.Errorf("set-up submission %d: %w", k, err)
		}
		s.first[fmt.Sprintf("submit/%d", k)] = resp.body
	}
	for _, rq := range append(append([]request{}, s.gets...), s.measures...) {
		body, err := getBody(c, rq.path)
		if err != nil {
			c.close()
			return d, dir, 0, fmt.Errorf("set-up: %w", err)
		}
		s.first[rq.key] = body
	}
	c.close()
	if err := d.stop(); err != nil {
		return nil, dir, 0, err
	}
	gap.ResetMemo()
	if err := gap.SetCacheDir(dir); err != nil {
		return nil, dir, 0, err
	}
	d, err = startDaemon(traced)
	if err != nil {
		return nil, dir, 0, err
	}
	return d, dir, time.Since(t0).Seconds(), nil
}

// warmSetupProbe runs one warm set-up in this fresh process and prints
// its seconds and the process's peak RSS: the parent's extra set-up
// samples.
func warmSetupProbe(o options, w io.Writer) error {
	d, dir, secs, err := warmSetup(o, newWarmSet(o.seed), false)
	rss := peakRSSMB()
	if serr := shutdown(d, dir); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, secs, rss)
	return err
}

func runWarm(o options) (rep *report, err error) {
	rep = newReport()
	s := newWarmSet(o.seed)
	// Set-up time and the peak RSS a set-up leaves are medians over cold
	// set-ups, each the first in its process: the input cache and thread
	// pools belong to the process, so a second set-up in one process
	// would skip building them. The traced run needs steady state, not
	// set-up figures, so it takes one sample.
	var setups, rss []float64
	if !o.trace {
		if setups, rss, err = probeSetups(o, warmSetups-1); err != nil {
			return nil, err
		}
	}
	d, dir, secs, err := warmSetup(o, s, o.trace)
	defer func() {
		if serr := shutdown(d, dir); err == nil {
			err = serr
		}
	}()
	if err != nil {
		return nil, err
	}
	setups, rss = append(setups, secs), append(rss, peakRSSMB())
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("peak_rss_mb", "MB", median(rss), len(rss))
	if err := figureAccuracy(rep, s.first["/v1/figure/fig1"], s.first["/v1/figure/fig5"]); err != nil {
		return nil, err
	}
	c := newClient(d.url)
	defer c.close()
	dur := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		_, misses0 := gap.MemoStats()
		disk0, _, _ := gap.CacheDirStats()
		loop := closedLoop(c, dur, 0, s.next, s.check, nil)
		loop.account(rep, "warm")
		_, misses1 := gap.MemoStats()
		disk1, _, _ := gap.CacheDirStats()
		if computed := misses1 - misses0 - (disk1 - disk0); computed != 0 {
			rep.fail("warm: the timed loop computed %d cells", computed)
		}
		daemonMetrics(rep, loop)
		return rep, nil
	}

	tr := newTracer()
	var mu sync.Mutex
	var subs []submission
	keep := func(i int, rq request, resp response) error {
		if err := s.check(i, rq, resp); err != nil {
			return err
		}
		if rq.method == "POST" {
			mu.Lock()
			subs = append(subs, submission{rq.body, resp.body})
			mu.Unlock()
		}
		return nil
	}
	if err := tracedPhase(rep, o, d, c, tr, dur/2, s.next, keep, s.check); err != nil {
		return nil, err
	}
	if v := rep.metrics["gap.cells_computed"].value; v != 0 {
		rep.fail("warm: the traced loop computed %g cells per request", v)
	}

	// Direct calls: render every figure, table and the snapshot from the
	// warm memo, read the set-up's cells from the store, run the
	// resubmissions' front end, and re-derive each traced resubmission
	// through a fresh submit.Service over the same cache directory.
	cfg := gap.Config{Scale: daemonScale, Jobs: daemonJobs}
	for round := 0; round < warmRenderRounds; round++ {
		for _, id := range suiteIDs() {
			trace := tr.newTrace()
			rep.attempted++
			sp := tr.begin(trace, 0, "gap.dispatch/"+id)
			out, err := gap.Dispatch(id, cfg)
			tr.end(sp)
			if err != nil {
				rep.fail("dispatch %s: %v", id, err)
				continue
			}
			for _, f := range suiteFormats {
				var buf bytes.Buffer
				sp := tr.begin(trace, 0, "report.emit/"+id+"/"+f)
				err := out.Emit(&buf, f)
				tr.end(sp)
				if err != nil {
					rep.fail("emit %s %s: %v", id, f, err)
				}
			}
		}
	}
	var stored []storedCell
	for _, gk := range s.kernels {
		cells, err := submittedCells(gk.Source())
		if err != nil {
			return nil, err
		}
		stored = append(stored, cells...)
	}
	probeStore(rep, tr, stored)
	var sources []string
	for _, sub := range subs {
		sources = append(sources, sub.source)
	}
	frontEndMetrics(rep, tr, sources)
	rederive(rep, tr, subs)
	spans := tr.snapshot()
	spanMetrics(rep, spans)
	return rep, writeSpans(traceFile(o, "spans.jsonl"), spans)
}
