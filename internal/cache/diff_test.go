package cache

// Differential tests of the hierarchy. AccessCost promises the policy the
// reference model in ref_test.go spells out, and a leader with followers
// attached promises each follower what it would have seen alone; both
// promises are checked access by access over random demand streams.
// FuzzHierarchyDifferential's committed corpus (testdata/fuzz) runs as an
// ordinary test.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ninjagap/internal/machine"
)

// op is one step of a demand stream: n ascending lines from line (a
// line-aligned address), read or written. off is a byte offset into the
// first line, which AccessCost receives unaligned.
type op struct {
	line  uint64
	off   uint64
	n     int
	write bool
}

// addr returns the address of the step's i-th line.
func (o op) addr(i int) uint64 {
	if i == 0 {
		return o.line + o.off
	}
	return o.line + uint64(i)*64
}

// genStream derives a demand stream of length ops from seed. Four streams
// interleave: a unit-stride walk (4- or 8-byte steps, so most touches
// repeat a line; one step in eight is a run of 2-8 lines), a large
// stride through 4 KiB-aligned sets, random lines in a 4 MiB span, and a
// pointer chase over a random cycle of 16384 lines.
// writePct/256 of the steps write. A fixed tail of reads follows (see
// prefetchedBelowL1), so every stream ends by demanding a prefetched line
// that only the levels below L1 still hold.
func genStream(seed int64, length int, writePct uint8) []op {
	r := rand.New(rand.NewSource(seed))
	const lb = 64
	chase := r.Perm(16384)
	unit := uint64(1 << 24)
	step := uint64(4 << r.Intn(2))
	stride := uint64(4096 * (1 + r.Intn(3)))
	if r.Intn(2) == 0 {
		stride = lb * uint64(17+2*r.Intn(40))
	}
	strided := uint64(1 << 26)
	ptr := 0
	out := make([]op, 0, length)
	for len(out) < length {
		o := op{n: 1, write: r.Intn(256) < int(writePct)}
		var addr uint64
		switch r.Intn(4) {
		case 0:
			if r.Intn(8) == 0 {
				o.n = 2 + r.Intn(7)
				unit = (unit + lb - 1) &^ (lb - 1)
				addr = unit
				unit += uint64(o.n) * lb
			} else {
				addr = unit
				unit += step
			}
		case 1:
			addr = strided + uint64(r.Intn(lb))
			strided += stride
			if strided > 1<<26+8<<20 {
				strided = 1 << 26
			}
		case 2:
			addr = 1<<27 + uint64(r.Intn(4<<20))
		case 3:
			ptr = chase[ptr]
			addr = 1<<28 + uint64(ptr)*lb + uint64(r.Intn(lb))
		}
		o.line, o.off = addr&^(lb-1), addr&(lb-1)
		out = append(out, o)
	}
	return append(out, prefetchedBelowL1()...)
}

// prefetchedBelowL1 is genStream's tail, on pages no other stream
// touches. Reading lines 0-2 of an even page confirms a one-line stride,
// so the prefetcher fetches lines 3 and 4 into every level. Line 3 of
// eight odd pages then evicts line 3 from its L1 set (every L1 modeled
// has 64 sets of 8 ways), while every lower level of 128 sets or more
// keeps it, since odd pages map to its other sets. The final read claims
// the prefetched line below L1.
func prefetchedBelowL1() []op {
	const base, page, lb = 1 << 29, 4096, 64
	var out []op
	for l := uint64(0); l < 3; l++ {
		out = append(out, op{line: base + l*lb, n: 1})
	}
	for p := uint64(1); p < 16; p += 2 {
		out = append(out, op{line: base + p*page + 3*lb, n: 1})
	}
	return append(out, op{line: base + 3*lb, n: 1})
}

// sameState fails t unless two hierarchies report identical statistics
// and DRAM traffic.
func sameState(t *testing.T, what string, step int, got, want *Hierarchy) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats(), want.Stats()) || got.DRAMBytes() != want.DRAMBytes() {
		t.Fatalf("step %d: %s diverged\n got: %+v dram %d\nwant: %+v dram %d",
			step, what, got.Stats(), got.DRAMBytes(), want.Stats(), want.DRAMBytes())
	}
}

// checkReference drives one stream through a hierarchy and through the
// reference model of the same machine and config. Per access, the two
// must serve the same level with the same latency; after every step, they
// must report the same statistics and DRAM traffic.
func checkReference(t *testing.T, m *machine.Machine, cfg Config, ops []op) {
	h, ref := New(m, cfg), newRefHierarchy(m, cfg)
	for k, o := range ops {
		for i := 0; i < o.n; i++ {
			var got, want served
			got.lvl, got.lat = h.AccessCost(o.addr(i), o.write)
			want.lvl, want.lat = ref.access(o.addr(i), o.write)
			if got != want {
				t.Fatalf("%s step %d address %#x: served %+v, reference %+v", m.Name, k, o.addr(i), got, want)
			}
		}
		if !reflect.DeepEqual(h.Stats(), ref.stats()) || h.DRAMBytes() != ref.dram {
			t.Fatalf("%s step %d: diverged from the reference\n got: %+v dram %d\nwant: %+v dram %d",
				m.Name, k, h.Stats(), h.DRAMBytes(), ref.stats(), ref.dram)
		}
	}
}

// smallLowerLevels returns Westmere with a 64 KB 4-way L2 and a 512 KB
// 8-way L3, small enough that the generated streams hit, and write back
// from, every level below L1.
func smallLowerLevels() *machine.Machine {
	m := machine.WestmereX980().Clone()
	m.Name = "Westmere with small L2/L3"
	m.Caches[1].SizeBytes, m.Caches[1].Assoc = 64<<10, 4
	m.Caches[2].SizeBytes, m.Caches[2].Assoc = 512<<10, 8
	return m
}

// followerSpec is one follower's machine and hierarchy config.
type followerSpec struct {
	name string
	m    *machine.Machine
	cfg  Config
}

// followerSpecs returns hierarchies whose front equals Westmere's under
// cfg: every preset's own levels below L1, then mutated ones (smaller and
// differently associative L2 and L3, other latencies, a fourth level, and
// the LLC shared by two to six cores).
func followerSpecs(cfg Config) []followerSpec {
	var out []followerSpec
	add := func(name string, m *machine.Machine, share int) {
		c := cfg
		c.ShareFactor = share
		out = append(out, followerSpec{name, m, c})
	}
	for _, m := range machine.All() {
		add(m.Name, m, 0)
	}
	w := machine.WestmereX980()
	small := smallLowerLevels()
	add("small L2/L3", small, 0)
	slow := w.Clone()
	slow.Caches[1].Latency, slow.Caches[2].Latency, slow.Mem.Latency = 13, 55, 310
	add("slow L2/L3/DRAM", slow, 0)
	two := machine.Core2Quad().Clone()
	two.Caches[1].SizeBytes, two.Caches[1].Assoc = 128<<10, 2
	add("two levels, 2-way L2", two, 0)
	four := small.Clone()
	four.Caches = append(four.Caches, machine.CacheLevel{Name: "L4", SizeBytes: 2 << 20, Assoc: 16, LineBytes: 64, Latency: 70, Shared: true})
	four.Caches[2].Shared = false
	add("four levels", four, 0)
	for share := 2; share <= 6; share++ {
		add(fmt.Sprintf("Westmere LLC shared by %d", share), w, share)
		add(fmt.Sprintf("small LLC shared by %d", share), small, share)
	}
	return out
}

// checkFollowers drives one stream through a Westmere leader with every
// followerSpecs hierarchy attached, and the same accesses through a solo
// Westmere and through an independent hierarchy per follower. Per access,
// the leader must return what the solo Westmere does, and each follower
// what its independent hierarchy does: its own L1 latency on a leader
// hit, LastMiss on a miss. Per step, every hierarchy must match its
// counterpart's statistics and DRAM traffic.
func checkFollowers(t *testing.T, cfg Config, ops []op) {
	lm := machine.WestmereX980()
	lead, solo := New(lm, cfg), New(lm, cfg)
	specs := followerSpecs(cfg)
	fs := make([]*Hierarchy, len(specs))
	ind := make([]*Hierarchy, len(specs))
	for i, s := range specs {
		fs[i], ind[i] = New(s.m, s.cfg), New(s.m, s.cfg)
	}
	if err := lead.Lead(fs...); err != nil {
		t.Fatalf("Lead: %v", err)
	}
	for k, o := range ops {
		for i := 0; i < o.n; i++ {
			addr := o.addr(i)
			before := lead.levels[0].stats.Misses
			var got, want served
			got.lvl, got.lat = lead.AccessCost(addr, o.write)
			missed := lead.levels[0].stats.Misses != before
			want.lvl, want.lat = solo.AccessCost(addr, o.write)
			if got != want {
				t.Fatalf("step %d address %#x: leader served %+v, alone %+v", k, addr, got, want)
			}
			for j, h := range ind {
				want.lvl, want.lat = h.AccessCost(addr, o.write)
				got = served{L1, fs[j].levels[0].latency}
				if missed {
					got.lvl, got.lat = fs[j].LastMiss()
				}
				if got != want {
					t.Fatalf("step %d address %#x: follower %s served %+v, alone %+v", k, addr, specs[j].name, got, want)
				}
			}
		}
		sameState(t, "leader", k, lead, solo)
		for j := range fs {
			sameState(t, "follower "+specs[j].name, k, fs[j], ind[j])
		}
	}
}

// FuzzHierarchyDifferential runs both differential checks on one stream:
// seed picks the stream, length its random steps (500 to 4,595, before
// genStream's fixed tail), writePct the share of writes, and prefetch
// whether the prefetcher runs. The reference check runs on Westmere alone
// (its 12 MB L3 rounds down to 8,192 sets) and with its L3 shared by four
// cores; on KnightsFerry, whose L2 is its last level; and on
// smallLowerLevels alone and with its L3 shared by three (341 sets round
// down to 256), where lines are served, and written back, from every
// level.
func FuzzHierarchyDifferential(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, length uint16, writePct uint8, prefetch bool) {
		cfg := Config{Prefetch: prefetch}
		ops := genStream(seed, 500+int(length)%4096, writePct)
		for _, r := range []struct {
			m     *machine.Machine
			share int
		}{
			{machine.WestmereX980(), 0}, {machine.WestmereX980(), 4}, {machine.KnightsFerry(), 4},
			{smallLowerLevels(), 0}, {smallLowerLevels(), 3},
		} {
			checkReference(t, r.m, Config{Prefetch: prefetch, ShareFactor: r.share}, ops)
		}
		checkFollowers(t, cfg, ops)
	})
}

// TestLeadRefuses checks the attach rules: a follower whose front differs
// from the leader's (L1 size, associativity or line size, prefetcher on or
// off, prefetch degree) is refused with ErrFront, a hierarchy that already
// leads or follows with ErrAttached, and a refusal attaches nothing.
func TestLeadRefuses(t *testing.T) {
	w := machine.WestmereX980()
	mut := func(f func(m *machine.Machine)) *machine.Machine {
		m := w.Clone()
		f(m)
		return m
	}
	cfg := Config{Prefetch: true}
	others := []struct {
		name string
		h    *Hierarchy
	}{
		{"64 KB L1", New(mut(func(m *machine.Machine) { m.Caches[0].SizeBytes = 64 << 10 }), cfg)},
		{"4-way L1", New(mut(func(m *machine.Machine) { m.Caches[0].Assoc = 4 }), cfg)},
		{"128-byte lines", New(mut(func(m *machine.Machine) {
			for i := range m.Caches {
				m.Caches[i].LineBytes = 128
			}
		}), cfg)},
		{"no prefetcher", New(w, Config{})},
		{"prefetch degree 4", New(w, Config{Prefetch: true, PrefetchDegree: 4})},
	}
	for _, o := range others {
		lead, ok := New(w, cfg), New(machine.NehalemI7(), cfg)
		if err := lead.Lead(ok, o.h); !errors.Is(err, ErrFront) {
			t.Errorf("%s: Lead returned %v, want ErrFront", o.name, err)
		}
		if lead.followers != nil || ok.lead != nil || o.h.lead != nil {
			t.Errorf("%s: a refused Lead left a hierarchy attached", o.name)
		}
	}
	a, b, c := New(w, cfg), New(w, cfg), New(w, cfg)
	if err := a.Lead(a); !errors.Is(err, ErrAttached) {
		t.Errorf("leading itself: got %v, want ErrAttached", err)
	}
	if err := a.Lead(b, b); !errors.Is(err, ErrAttached) || b.lead != nil {
		t.Errorf("one follower twice: got %v (attached %v), want ErrAttached", err, b.lead != nil)
	}
	if err := a.Lead(b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		lead, fol *Hierarchy
	}{{"a follower leads", b, c}, {"a leader follows", c, a}, {"a follower follows twice", c, b}, {"a leader leads twice", a, c}} {
		if err := tc.lead.Lead(tc.fol); !errors.Is(err, ErrAttached) {
			t.Errorf("%s: got %v, want ErrAttached", tc.name, err)
		}
	}
	b.Detach()
	if len(a.followers) != 0 || b.lead != nil {
		t.Errorf("Detach left a follower attached: %d followers", len(a.followers))
	}
	if err := a.Lead(c); err != nil {
		t.Errorf("a leader whose followers all left cannot lead again: %v", err)
	}
}

// TestDifferentialStreamsCoverEvents keeps the differential checks from
// going vacuous: a committed corpus stream must drive every event a
// leader forwards (demand misses served by each level below L1 and by
// DRAM, prefetch fills, dirty write-backs out of every level) through
// the smallest follower geometry, and claim prefetched lines in L1 and
// in L2.
func TestDifferentialStreamsCoverEvents(t *testing.T) {
	var small followerSpec
	for _, s := range followerSpecs(Config{Prefetch: true}) {
		if s.name == "small L2/L3" {
			small = s
		}
	}
	h := New(small.m, small.cfg)
	for _, o := range genStream(3, 4500, 64) {
		for i := 0; i < o.n; i++ {
			h.AccessCost(o.line+uint64(i)*64, o.write)
		}
	}
	st := h.Stats()
	for i, s := range st {
		if s.Writebacks == 0 || s.Prefetches == 0 || s.Misses == 0 || (i > 0 && s.Hits == 0) {
			t.Errorf("level %d: %+v; want misses, hits below L1, prefetch fills and write-backs", i+1, s)
		}
	}
	if st[0].PrefetchHits == 0 {
		t.Error("no demand hit on a prefetched line")
	}
	if st[1].PrefetchHits == 0 {
		t.Error("no demand hit on a prefetched line below L1")
	}
}
