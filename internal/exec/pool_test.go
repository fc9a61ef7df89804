package exec

import (
	"reflect"
	"testing"

	"ninjagap/internal/cache"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// TestPooledContextServesFeatureVariant checks what pooling thread
// contexts by cache.Key relies on. Fig 7 measures the pragma and algo
// versions on Westmere and on its gather/scatter+FMA variant. The variant
// must draw from the base machine's pool. A context left by a Westmere
// run (warm lines, dirty lines, trained prefetcher streams), once reset
// and reused for the variant, must give exactly the Result a freshly built
// context gives.
func TestPooledContextServesFeatureVariant(t *testing.T) {
	base := machine.WestmereX980()
	feat := base.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	hw := base.WithFeatures(feat)

	// run measures inst on m with thread i's context taken from ctxs[i]
	// (fresh ones when ctxs is nil), and returns the engine and its Result.
	run := func(inst *kernels.Instance, m *machine.Machine, ctxs []*threadCtx) (*engine, Result) {
		t.Helper()
		e, err := newEngine(inst.Prog, inst.Arrays, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.threads {
			var c *threadCtx
			if ctxs != nil {
				c = ctxs[i]
			}
			e.threads[i] = e.readyThread(c, i)
		}
		if err := e.runTop(); err != nil {
			t.Fatal(err)
		}
		e.finish()
		return e, e.res
	}
	prepare := func(b kernels.Benchmark, v kernels.Version, m *machine.Machine) *kernels.Instance {
		t.Helper()
		inst, err := b.Prepare(v, m, legalN(b, b.TestN()))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	for _, b := range kernels.All() {
		for _, v := range []kernels.Version{kernels.Pragma, kernels.Algo} {
			used, _ := run(prepare(b, v, base), base, nil)
			_, fresh := run(prepare(b, v, hw), hw, nil)
			reusedEng, reused := run(prepare(b, v, hw), hw, used.threads)
			if reusedEng.pool != used.pool {
				t.Fatalf("%s/%s: the variant draws from a different pool than its base machine", b.Name(), v)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("%s/%s: reused context diverged from a fresh one\nreused: %+v\nfresh:  %+v",
					b.Name(), v, reused, fresh)
			}
		}
	}
}

// TestPooledContextAfterSharedRun checks the thread contexts a shared run
// returns to its pools. A follower's hierarchy reads its L1 statistics
// from its leader's while attached, and the leader forwards its misses to
// it; once the run is released, no context may keep that link or pin the
// run's engine, and each must serve a later solo run exactly as a freshly
// built context does.
func TestPooledContextAfterSharedRun(t *testing.T) {
	ms := machine.All()
	prepare := func(name string, v kernels.Version, m *machine.Machine) *kernels.Instance {
		t.Helper()
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := b.Prepare(v, m, legalN(b, b.TestN()))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	// RunShared, keeping each machine's context as release leaves it.
	inst := prepare("treesearch", kernels.Naive, ms[0])
	g := &shared{}
	for _, m := range ms {
		e, err := newEngine(inst.Prog, inst.Arrays, m, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		g.engines = append(g.engines, e)
	}
	if err := g.bind(); err != nil {
		t.Fatal(err)
	}
	if err := g.engines[0].runTop(); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*threadCtx, len(ms))
	for k, e := range g.engines {
		ctxs[k] = e.threads[0]
	}
	if ctxs[0].hier.Stats()[0] != ctxs[1].hier.Stats()[0] {
		t.Fatal("an attached follower does not report its leader's L1 statistics")
	}
	g.release()

	type snapshot struct {
		stats []cache.LevelStats
		dram  uint64
	}
	snap := func(c *threadCtx) snapshot { return snapshot{c.hier.Stats(), c.hier.DRAMBytes()} }
	before := make([]snapshot, len(ctxs))
	for k, c := range ctxs {
		if c.e != nil {
			t.Errorf("%s: released context still points at its engine", ms[k].Name)
		}
		if k > 0 && c.hier.Stats()[0] != (cache.LevelStats{}) {
			t.Errorf("%s: released follower still reports its leader's L1 statistics", ms[k].Name)
		}
		before[k] = snap(c)
	}

	// solo runs a stencil naive cell on m with thread context c (a fresh
	// one when c is nil).
	solo := func(m *machine.Machine, c *threadCtx) Result {
		t.Helper()
		inst := prepare("stencil", kernels.Naive, m)
		e, err := newEngine(inst.Prog, inst.Arrays, m, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.threads[0] = e.readyThread(c, 0)
		if err := e.runTop(); err != nil {
			t.Fatal(err)
		}
		e.finish()
		return e.res
	}
	// The former leader runs first: no former follower may see its misses.
	for k, c := range ctxs {
		if got, want := solo(ms[k], c), solo(ms[k], nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused context diverged from a fresh one\nreused: %+v\nfresh:  %+v", ms[k].Name, got, want)
		}
		for j := k + 1; j < len(ctxs); j++ {
			if !reflect.DeepEqual(snap(ctxs[j]), before[j]) {
				t.Errorf("%s's run changed %s's released hierarchy", ms[k].Name, ms[j].Name)
			}
		}
	}
}
