package cache

// Differential tests of the hierarchy. The three entry points (AccessCost,
// TouchLine through a line cursor, AccessRun over a run of lines) promise
// the same side effects, and a leader with followers attached promises
// each follower what it would have seen alone; both promises are checked
// access by access over random demand streams. FuzzHierarchyDifferential's
// committed corpus (testdata/fuzz) runs as an ordinary test.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ninjagap/internal/machine"
)

// op is one step of a demand stream: n ascending lines from line (a
// line-aligned address), read or written. off is a byte offset into the
// first line, which AccessCost receives unaligned; cur is the stream's
// line cursor for TouchLine.
type op struct {
	line  uint64
	off   uint64
	n     int
	write bool
	cur   int
}

// genStream derives a demand stream of length ops from seed. Four streams
// interleave, each with its own cursor: a unit-stride walk (4- or 8-byte
// steps, so most touches repeat a line; one step in eight is a run of 2-8
// lines), a large stride through 4 KiB-aligned sets, random lines in a
// 4 MiB span, and a pointer chase over a random cycle of 16384 lines.
// writePct/256 of the steps write.
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
		o := op{n: 1, write: r.Intn(256) < int(writePct), cur: r.Intn(4)}
		var addr uint64
		switch o.cur {
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
	return out
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

// checkEntryPoints drives one stream through AccessCost, TouchLine and
// AccessRun on three hierarchies built alike. Per access, TouchLine must
// return AccessCost's level and latency, and AccessRun must miss L1 where
// AccessCost did; per step, AccessRun's stall must equal the stall
// AccessCost's results give, bit for bit; and the three must end every
// step with equal statistics and DRAM traffic.
func checkEntryPoints(t *testing.T, m *machine.Machine, cfg Config, ops []op) {
	hA, hT, hR := New(m, cfg), New(m, cfg), New(m, cfg)
	var curs [4]LineCursor
	l1Lat, mlp := m.Caches[0].Latency, 3.0
	var stallA, stallR float64
	for k, o := range ops {
		missA := uint64(0)
		for i := 0; i < o.n; i++ {
			line := o.line + uint64(i)*64
			off := uint64(0)
			if i == 0 {
				off = o.off
			}
			a := served{}
			a.lvl, a.lat = hA.AccessCost(line+off, o.write)
			tt := served{}
			tt.lvl, tt.lat = hT.TouchLine(&curs[o.cur], line, o.write)
			if a != tt {
				t.Fatalf("step %d line %#x: AccessCost %+v, TouchLine %+v", k, line, a, tt)
			}
			if a.lvl != L1 {
				missA++
				// The engine's read miss stall, as AccessRun charges it.
				if pen := a.lat - l1Lat; !o.write && pen > 0 {
					stallA += pen / mlp
				}
			}
		}
		before := hR.levels[0].stats.Misses
		hR.AccessRun(o.line, o.n, o.write, l1Lat, mlp, &stallR)
		if got := hR.levels[0].stats.Misses - before; got != missA {
			t.Fatalf("step %d: AccessRun missed L1 %d times, AccessCost %d", k, got, missA)
		}
		if math.Float64bits(stallA) != math.Float64bits(stallR) {
			t.Fatalf("step %d: AccessRun stall %v, AccessCost stall %v", k, stallR, stallA)
		}
		sameState(t, "TouchLine", k, hT, hA)
		sameState(t, "AccessRun", k, hR, hA)
	}
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
	small := w.Clone()
	small.Caches[1].SizeBytes, small.Caches[1].Assoc = 64<<10, 4
	small.Caches[2].SizeBytes, small.Caches[2].Assoc = 512<<10, 8
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
// followerSpecs hierarchy attached, rotating AccessCost, TouchLine and
// AccessRun, and the same lines through a solo Westmere and through an
// independent hierarchy per follower with AccessCost. Per access, the
// leader must return what the solo Westmere does, and each follower what
// its independent hierarchy does: its own L1 latency on a leader hit,
// LastMiss on a miss (for AccessRun, which reports one stall for a run,
// LastMiss after the run must be the run's last miss). Per step, every
// hierarchy must match its counterpart's statistics and DRAM traffic.
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
	var curs [4]LineCursor
	var stall float64
	last := make([]served, len(specs))
	for k, o := range ops {
		if k%3 == 2 {
			before := lead.levels[0].stats.Misses
			lead.AccessRun(o.line, o.n, o.write, 4, 2, &stall)
			missed := lead.levels[0].stats.Misses != before
			for i := 0; i < o.n; i++ {
				line := o.line + uint64(i)*64
				solo.AccessCost(line, o.write)
				for j, h := range ind {
					if lvl, lat := h.AccessCost(line, o.write); lvl != L1 {
						last[j] = served{lvl, lat}
					}
				}
			}
			for j, f := range fs {
				got := served{}
				got.lvl, got.lat = f.LastMiss()
				if missed && got != last[j] {
					t.Fatalf("step %d: follower %s's last miss of the run %+v, alone %+v", k, specs[j].name, got, last[j])
				}
			}
		}
		for i := 0; i < o.n && k%3 != 2; i++ {
			line := o.line + uint64(i)*64
			before := lead.levels[0].stats.Misses
			var got, want served
			if k%3 == 0 {
				addr := line
				if i == 0 {
					addr += o.off
				}
				got.lvl, got.lat = lead.AccessCost(addr, o.write)
			} else {
				got.lvl, got.lat = lead.TouchLine(&curs[o.cur], line, o.write)
			}
			missed := lead.levels[0].stats.Misses != before
			want.lvl, want.lat = solo.AccessCost(line, o.write)
			if got != want {
				t.Fatalf("step %d line %#x: leader served %+v, alone %+v", k, line, got, want)
			}
			for j, h := range ind {
				want.lvl, want.lat = h.AccessCost(line, o.write)
				got = served{L1, fs[j].levels[0].latency}
				if missed {
					got.lvl, got.lat = fs[j].LastMiss()
				}
				if got != want {
					t.Fatalf("step %d line %#x: follower %s served %+v, alone %+v", k, line, specs[j].name, got, want)
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
// seed picks the stream, length its steps (500 to 4,595), writePct the
// share of writes, and prefetch whether the prefetcher runs.
func FuzzHierarchyDifferential(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, length uint16, writePct uint8, prefetch bool) {
		cfg := Config{Prefetch: prefetch}
		ops := genStream(seed, 500+int(length)%4096, writePct)
		checkEntryPoints(t, machine.WestmereX980(), cfg, ops)
		checkEntryPoints(t, machine.KnightsFerry(), Config{Prefetch: prefetch, ShareFactor: 4}, ops)
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
// the smallest follower geometry.
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
}
