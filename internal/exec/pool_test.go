package exec

import (
	"reflect"
	"testing"

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
