package cache

import (
	"reflect"
	"testing"

	"ninjagap/internal/machine"
)

// TestKeyCoversEveryInput changes one input of New at a time and checks
// that Key tells the result apart from the base hierarchy. CacheLevel's
// fields are enumerated by reflection, so a field added there fails this
// test until Key covers it.
func TestKeyCoversEveryInput(t *testing.T) {
	base := machine.WestmereX980()
	cfg := Config{ShareFactor: 6, Prefetch: true}
	want := Key(base, cfg)
	differs := func(what string, m *machine.Machine, c Config) {
		t.Helper()
		if got := Key(m, c); got == want {
			t.Errorf("%s changed but the key did not: %s", what, got)
		}
	}

	for i := range base.Caches {
		typ := reflect.TypeOf(base.Caches[i])
		for f := 0; f < typ.NumField(); f++ {
			m := base.Clone()
			v := reflect.ValueOf(&m.Caches[i]).Elem().Field(f)
			switch v.Kind() {
			case reflect.Int:
				v.SetInt(v.Int() * 2)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				v.SetString(v.String() + "'")
			default:
				t.Fatalf("CacheLevel.%s has kind %s: cover it in Key and here", typ.Field(f).Name, v.Kind())
			}
			differs(base.Caches[i].Name+"."+typ.Field(f).Name, m, cfg)
		}
	}
	m := base.Clone()
	m.Caches = m.Caches[:len(m.Caches)-1]
	differs("level count", m, cfg)
	m = base.Clone()
	m.Mem.Latency++
	differs("Mem.Latency", m, cfg)

	differs("ShareFactor", base, Config{ShareFactor: 3, Prefetch: true})
	differs("Prefetch", base, Config{ShareFactor: 6})
	differs("PrefetchDegree", base, Config{ShareFactor: 6, Prefetch: true, PrefetchDegree: 4})
}

// TestKeySharedByFeatureAndCostVariants checks the other direction: a
// variant that differs from its base only outside the caches keeps the
// base's key, so it reuses the base's pooled hierarchies. Fig 7 runs the
// gather/scatter+FMA Westmere and the ablation runs core-count variants;
// cost and memory edits are the other ways a variant is made.
func TestKeySharedByFeatureAndCostVariants(t *testing.T) {
	base := machine.WestmereX980()
	cfg := Config{ShareFactor: 6, Prefetch: true}
	want := Key(base, cfg)

	feat := base.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	slowGather := base.Clone()
	slowGather.SetCost(machine.OpGatherElem, machine.Cost{Port: machine.PortLoad, RecipTput: 3, Latency: 9, Pipelined: true})
	lowBW := base.Clone()
	lowBW.Mem.BandwidthGBps /= 2
	lowBW.Mem.MLP = 4

	for name, m := range map[string]*machine.Machine{
		"WithFeatures(gather+scatter+FMA)": base.WithFeatures(feat),
		"WithCores(3)":                     base.WithCores(3),
		"SetCost(OpGatherElem)":            slowGather,
		"Mem.BandwidthGBps and MLP":        lowBW,
	} {
		if got := Key(m, cfg); got != want {
			t.Errorf("%s: key %s, base machine's %s", name, got, want)
		}
	}
}
