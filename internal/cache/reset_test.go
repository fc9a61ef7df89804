package cache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"ninjagap/internal/machine"
)

// TestLineIs24Bytes guards the line layout: every allocated way of every
// simulated set is one line, so its size is most of a hierarchy's host
// footprint.
func TestLineIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Errorf("unsafe.Sizeof(line{}) = %d, want 24", got)
	}
}

type served struct {
	lvl Level
	lat float64
}

// accessMix drives h with a deterministic mix over a 4 MiB span, twice
// Westmere's per-core L3 share: unit-stride line walks that train the
// prefetcher, interleaved with scattered reads and writes that evict and
// write back at every level. It returns how each access was served.
func accessMix(h *Hierarchy, seed int64) []served {
	const n = 20000
	rng := rand.New(rand.NewSource(seed))
	out := make([]served, 0, n)
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(4 << 20))
		if i%64 < 32 {
			addr = uint64(i/64)*4096 + uint64(i%32)*64
		}
		lvl, lat := h.AccessCost(addr, rng.Intn(3) == 0)
		out = append(out, served{lvl, lat})
	}
	return out
}

// TestResetAfterGenerationWrapMatchesFresh checks the reset that wraps
// the 32-bit line generation. The hierarchy holds lines stamped with
// generation 1 and with the last generation before the wrap; after the
// wrap, generation 1 is current again, and none of those lines may be
// served. The same access sequence must then see exactly what a freshly
// built hierarchy sees.
func TestResetAfterGenerationWrapMatchesFresh(t *testing.T) {
	m := machine.WestmereX980()
	cfg := Config{ShareFactor: 6, Prefetch: true}
	fresh := New(m, cfg)
	want := accessMix(fresh, 2)

	h := New(m, cfg)
	accessMix(h, 1) // lines stamped with generation 1
	for _, l := range h.levels {
		l.gen = math.MaxUint32 // as if 2^32-2 resets had passed since
	}
	accessMix(h, 3) // lines stamped with generation MaxUint32
	h.Reset()
	for i, l := range h.levels {
		if l.gen != 1 {
			t.Fatalf("level %d: generation %d after the wrap, want 1", i, l.gen)
		}
	}
	got := accessMix(h, 2)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d served as %v after the wrap, %v by a fresh hierarchy", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(h.Stats(), fresh.Stats()) {
		t.Errorf("stats after the wrap %+v, fresh %+v", h.Stats(), fresh.Stats())
	}
	if h.DRAMBytes() != fresh.DRAMBytes() {
		t.Errorf("DRAM bytes after the wrap %d, fresh %d", h.DRAMBytes(), fresh.DRAMBytes())
	}
}
