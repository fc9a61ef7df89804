package main

import (
	"math"
	"sort"
	"testing"

	"ninjagap/internal/compiler"
	"ninjagap/internal/lang"
	"ninjagap/internal/submit"
)

func TestGeneratorDeterministic(t *testing.T) {
	a, b := generator{seed: 7}, generator{seed: 7}
	for i := 0; i < 50; i++ {
		if a.kernel(i).Source() != b.kernel(i).Source() {
			t.Fatalf("kernel %d differs between two generators with the same seed", i)
		}
	}
	if a.kernel(3).Source() == (generator{seed: 8}).kernel(3).Source() {
		t.Fatal("seeds 7 and 8 generated the same kernel")
	}
}

// TestGeneratorStrata checks that each block of kernels covers every
// length slice, loop depth and access pattern once per stratum.
func TestGeneratorStrata(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := generator{seed: seed, stream: 2}
		var lens []int
		depths := map[int]int{}
		patterns := map[pattern]int{}
		for i := 0; i < lengthStrata; i++ {
			k := g.kernel(i)
			lens = append(lens, k.Len)
			if i < 3*maxLoopDepth {
				depths[k.Depth]++
			}
			if i < 2*int(numPatterns) {
				patterns[k.Pattern]++
			}
		}
		sort.Ints(lens)
		for j, n := range lens {
			lo := minLen * math.Pow(float64(maxLen)/minLen, float64(j)/lengthStrata)
			hi := minLen * math.Pow(float64(maxLen)/minLen, float64(j+1)/lengthStrata)
			if float64(n) < lo-1 || float64(n) > hi+1 {
				t.Errorf("seed %d: %d-th shortest length %d outside its slice [%.0f, %.0f]", seed, j, n, lo, hi)
			}
		}
		for d := 1; d <= maxLoopDepth; d++ {
			if depths[d] != 3 {
				t.Errorf("seed %d: depth %d drawn %d times in three blocks", seed, d, depths[d])
			}
		}
		for p := pattern(0); p < numPatterns; p++ {
			if patterns[p] != 2 {
				t.Errorf("seed %d: pattern %s drawn %d times in two blocks", seed, p, patterns[p])
			}
		}
	}
}

func TestGeneratedKernelsAdmittedAndCompile(t *testing.T) {
	lim := submit.DefaultLimits()
	for _, seed := range []int64{1, 2, 3} {
		g := generator{seed: seed}
		for i := 0; i < 96; i++ {
			gk := g.kernel(i)
			if gk.Len < minLen || gk.Len > maxLen {
				t.Fatalf("seed %d kernel %d: length %d outside [%d, %d]", seed, i, gk.Len, minLen, maxLen)
			}
			src := gk.Source()
			if len(src) > lim.MaxSourceBytes {
				t.Fatalf("seed %d kernel %d: %d source bytes", seed, i, len(src))
			}
			canonical, k, err := lang.Normalize(src)
			if err != nil {
				t.Fatalf("seed %d kernel %d does not parse: %v\n%s", seed, i, err, src)
			}
			if err := lim.Lang.Check(lang.Analyze(k)); err != nil {
				t.Fatalf("seed %d kernel %d not admitted: %v\n%s", seed, i, err, src)
			}
			for _, level := range compiler.Levels() {
				opt, err := compiler.ByLevel(level)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := compiler.Compile(k, opt); err != nil {
					t.Fatalf("seed %d kernel %d does not compile at %s: %v\n%s", seed, i, level, err, src)
				}
			}
			variant := gk.Reformat(g.rng(9, int64(i)))
			if variant == src {
				t.Fatalf("seed %d kernel %d: reformatting changed nothing", seed, i)
			}
			again, _, err := lang.Normalize(variant)
			if err != nil {
				t.Fatalf("seed %d kernel %d: reformatted source does not parse: %v\n%s", seed, i, err, variant)
			}
			if again != canonical {
				t.Fatalf("seed %d kernel %d: reformatting changed the canonical source\n%s\nvs\n%s", seed, i, canonical, again)
			}
		}
	}
}
