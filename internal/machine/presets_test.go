package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestPresetFingerprintsMatchFresh checks each fingerprint the preset
// table keeps against a fresh preset hashed anew and against the
// fmt reference, and that a fresh preset is answered with it.
func TestPresetFingerprintsMatchFresh(t *testing.T) {
	if len(presets) != len(All()) {
		t.Fatalf("preset table has %d rows, All returns %d machines", len(presets), len(All()))
	}
	for i := range presets {
		p := &presets[i]
		fresh := p.build()
		_, fp := p.pristine()
		if p.name != fresh.Name {
			t.Errorf("row %d is named %q, builds %q", i, p.name, fresh.Name)
		}
		if want := referenceFingerprint(fresh); fp != want || fresh.hash() != want {
			t.Errorf("%s: kept fingerprint %016x, fresh hash %016x, reference %016x", p.name, fp, fresh.hash(), want)
		}
		if got := fresh.Fingerprint(); got != fp {
			t.Errorf("%s: fresh preset fingerprints %016x, table keeps %016x", p.name, got, fp)
		}
	}
}

// TestByNameReturnsFreshCopy checks that ByName and All build new
// machines on every call: a SetCost or a cache edit on one copy reaches
// neither the next copy nor the fingerprint kept for the preset.
func TestByNameReturnsFreshCopy(t *testing.T) {
	const name = "WestmereX980"
	want := referenceFingerprint(WestmereX980())
	a, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Cost(OpFPDiv)
	c.RecipTput *= 2
	a.SetCost(OpFPDiv, c)
	a.Caches[0].SizeBytes *= 2

	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || &a.Caches[0] == &b.Caches[0] {
		t.Fatal("ByName returned shared state")
	}
	if b.Cost(OpFPDiv) == a.Cost(OpFPDiv) || b.Caches[0].SizeBytes == a.Caches[0].SizeBytes {
		t.Error("an edit to one ByName copy reached the next")
	}
	if got := b.Fingerprint(); got != want {
		t.Errorf("fresh copy after an edit fingerprints %016x, want %016x", got, want)
	}
	if _, fp := presetNamed(name).pristine(); fp != want {
		t.Errorf("kept fingerprint %016x after an edit to a copy, want %016x", fp, want)
	}
	if got := a.Fingerprint(); got == want || got != referenceFingerprint(a) {
		t.Errorf("edited copy fingerprints %016x: want its own %016x, not the preset's", got, referenceFingerprint(a))
	}

	x, y := All(), All()
	for i := range x {
		if x[i] == y[i] || &x[i].Caches[0] == &y[i].Caches[0] {
			t.Errorf("All returned shared state for %s", x[i].Name)
		}
	}
}

// leaves calls f with the path and value of every leaf field under v:
// every field of every struct, every cache level and every cost entry,
// unexported ones made settable.
func leaves(v reflect.Value, path string, f func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fv := v.Field(i)
			if !fv.CanSet() {
				fv = reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
			}
			leaves(fv, path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	default:
		f(path, v)
	}
}

// TestSameModelSeesEveryField changes each leaf field of each preset,
// one clone per field: no such clone may pass for its preset, or it
// would be answered with the preset's kept fingerprint. A float that is
// 0 in the preset becomes -0, which only its sign tells apart. One more
// clone gains a cache level.
func TestSameModelSeesEveryField(t *testing.T) {
	for _, p := range All() {
		var paths []string
		leaves(reflect.ValueOf(p.Clone()).Elem(), p.Name, func(path string, _ reflect.Value) {
			paths = append(paths, path)
		})
		for _, target := range paths {
			c := p.Clone()
			leaves(reflect.ValueOf(c).Elem(), p.Name, func(path string, v reflect.Value) {
				if path != target {
					return
				}
				switch v.Kind() {
				case reflect.Int:
					v.SetInt(v.Int() + 1)
				case reflect.Float64:
					if v.Float() == 0 {
						v.SetFloat(math.Copysign(0, -1))
					} else {
						v.SetFloat(v.Float() + 1)
					}
				case reflect.Bool:
					v.SetBool(!v.Bool())
				case reflect.String:
					v.SetString(v.String() + "x")
				default:
					t.Fatalf("%s: no way to change a %s field", path, v.Kind())
				}
			})
			if c.sameModel(p) {
				t.Errorf("%s changed, still the same model as the preset", target)
			}
			if got, want := c.Fingerprint(), referenceFingerprint(c); got != want {
				t.Errorf("%s changed: fingerprint %016x, reference %016x", target, got, want)
			}
		}
		c := p.Clone()
		c.Caches = append(c.Caches, c.Caches[len(c.Caches)-1])
		if c.sameModel(p) || c.Fingerprint() == p.Fingerprint() {
			t.Errorf("%s with an extra cache level passes for the preset", p.Name)
		}
	}
}
