package shmem

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
)

func setup(t *testing.T) (*mem.Memory, *cache.Cache, machine.Params, *ir.Array) {
	t.Helper()
	b := ir.NewBuilder("shmem")
	a := b.SharedArray("A", 256)
	b.Routine("main", ir.Set(ir.At(a, ir.K(0)), ir.N(0)))
	p := b.Build()
	mp := machine.T3D(4)
	total := mem.Layout(p, mp.LineWords)
	m := mem.New(p, 4, total)
	for i := int64(0); i < 256; i++ {
		m.Write(a.Base+i, float64(i)*1.5)
	}
	return m, cache.New(mp.CacheWords, mp.LineWords), mp, a
}

func TestGetInstallsFreshLines(t *testing.T) {
	m, c, mp, a := setup(t)
	addrs := []int64{a.Base + 64, a.Base + 65, a.Base + 66, a.Base + 67, a.Base + 68}
	cost := Get(m, c, mp, addrs, 100)
	want := mp.ShmemStartupCost + int64(len(addrs))*mp.ShmemPerWordCost
	if cost != want {
		t.Errorf("cost = %d, want %d", cost, want)
	}
	for _, addr := range addrs {
		v, g, ready, hit := c.Lookup(addr)
		if !hit {
			t.Fatalf("addr %d not installed", addr)
		}
		if v != float64(addr-a.Base)*1.5 {
			t.Errorf("addr %d value %v", addr, v)
		}
		if g != m.Gen(addr) {
			t.Errorf("addr %d gen %d vs memory %d", addr, g, m.Gen(addr))
		}
		if ready != 100 {
			t.Errorf("ready = %d", ready)
		}
	}
}

func TestGetDedupesLines(t *testing.T) {
	m, c, mp, a := setup(t)
	// Four words of the same line: one install.
	addrs := []int64{a.Base, a.Base + 1, a.Base + 2, a.Base + 3}
	Get(m, c, mp, addrs, 0)
	if c.Installs != 1 {
		t.Errorf("installs = %d, want 1", c.Installs)
	}
}

func TestGetEmpty(t *testing.T) {
	m, c, mp, _ := setup(t)
	if cost := Get(m, c, mp, nil, 0); cost != 0 {
		t.Errorf("empty get cost = %d", cost)
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	m, c, mp, _ := setup(t)
	for _, bad := range []int64{-1, m.Words(), m.Words() + 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(addr=%d) did not panic", bad)
				}
			}()
			Get(m, c, mp, []int64{bad}, 0)
		}()
	}
}

func TestGetWithFaultsDropAndLate(t *testing.T) {
	m, c, mp, a := setup(t)
	// Two distinct lines; drop the first, delay the second.
	addrs := []int64{a.Base, a.Base + 8}
	calls := 0
	f := &Faults{
		DropLine:  func() bool { calls++; return calls == 1 },
		LateDelay: func() int64 { return 500 },
	}
	cost, dropped := GetWithFaults(m, c, mp, addrs, 100, f)
	if want := mp.ShmemStartupCost + 2*mp.ShmemPerWordCost; cost != want {
		t.Errorf("cost = %d, want %d (dropped lines are still charged)", cost, want)
	}
	if !dropped.Contains(a.Base) || dropped.Len() != 1 {
		t.Errorf("dropped = %v, want {%d}", dropped.Lines(), a.Base)
	}
	if c.Contains(a.Base) {
		t.Error("dropped line was installed")
	}
	_, _, ready, hit := c.Lookup(a.Base + 8)
	if !hit || ready != 600 {
		t.Errorf("late line hit=%v ready=%d, want hit at 600", hit, ready)
	}
}

func TestStridedGet(t *testing.T) {
	m, c, mp, a := setup(t)
	// Stride 8: each word on its own line.
	var addrs []int64
	for k := int64(0); k < 10; k++ {
		addrs = append(addrs, a.Base+k*8)
	}
	Get(m, c, mp, addrs, 0)
	if c.Installs != 10 {
		t.Errorf("installs = %d, want 10", c.Installs)
	}
}

func TestGetOverNetTorus(t *testing.T) {
	m, c, mp, a := setup(t)
	net, err := noc.New(noc.Config{Kind: noc.KindTorus, X: 4, Y: 1, Z: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// One line homed on each of two remote PEs plus one local line.
	words := m.Words() / 4 // block distribution: words per PE
	local := a.Base
	rem1 := words + (a.Base % mp.LineWords)   // somewhere on PE 1
	rem2 := 2*words + (a.Base % mp.LineWords) // somewhere on PE 2
	if m.OwnerOf(local) != 0 || m.OwnerOf(rem1) != 1 || m.OwnerOf(rem2) != 2 {
		t.Fatalf("owners %d/%d/%d, want 0/1/2", m.OwnerOf(local), m.OwnerOf(rem1), m.OwnerOf(rem2))
	}
	cost, dropped := GetOverNet(m, c, &mp, net, 0, []int64{local, rem1, rem2}, 1000, nil, nil)
	if dropped != NoDrops || dropped.Len() != 0 {
		t.Fatalf("fault-free get dropped %v (want the shared NoDrops sentinel)", dropped.Lines())
	}
	// The blocking cost covers the slowest gather: PE 2 is 2 hops away, so
	// its reply (1 line) must arrive after 2 routed trips plus base cost —
	// strictly more than the flat per-word formula charges for 3 words.
	flat := mp.ShmemStartupCost + 3*mp.ShmemPerWordCost
	if cost <= flat {
		t.Errorf("torus get cost %d, want > flat %d (distance-dependent)", cost, flat)
	}
	// Each line is usable at its own message's arrival: the near line
	// strictly before the far line.
	_, _, r1, hit1 := c.Lookup(rem1)
	_, _, r2, hit2 := c.Lookup(rem2)
	if !hit1 || !hit2 {
		t.Fatalf("remote lines not installed (hit1=%v hit2=%v)", hit1, hit2)
	}
	if !(r1 < r2) {
		t.Errorf("near line ready %d, far line ready %d; want near < far", r1, r2)
	}
	if _, _, r0, hit := c.Lookup(local); !hit || r0 != 1000 {
		t.Errorf("local line ready %d hit=%v, want 1000", r0, hit)
	}
	// A nil network must reproduce the flat cost for the same request.
	c2 := cache.New(mp.CacheWords, mp.LineWords)
	if got, _ := GetOverNet(m, c2, &mp, nil, 0, []int64{local, rem1, rem2}, 1000, nil, nil); got != flat {
		t.Errorf("flat get cost %d, want %d", got, flat)
	}
}
