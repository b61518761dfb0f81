package noc

import (
	"math/rand"
	"reflect"
	"testing"
)

func mustNew(t *testing.T, cfg Config, numPE int) *Network {
	t.Helper()
	n, err := New(cfg, numPE)
	if err != nil {
		t.Fatalf("New(%+v, %d): %v", cfg, numPE, err)
	}
	if n == nil {
		t.Fatalf("New(%+v, %d): nil network", cfg, numPE)
	}
	return n
}

// torusManhattan computes the reference hop distance independently of the
// router: per dimension, the shorter of the direct and wraparound walks.
func torusManhattan(n *Network, src, dst int) int {
	sx, sy, sz := n.Coord(src)
	dx, dy, dz := n.Coord(dst)
	X, Y, Z := n.Dims()
	dist := func(a, b, size int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		if w := size - d; w < d {
			return w
		}
		return d
	}
	return dist(sx, dx, X) + dist(sy, dy, Y) + dist(sz, dz, Z)
}

// endpoints decodes a link id back to its source node, dimension and step.
func endpoints(n *Network, id int32) (node, dim, step int) {
	node = int(id) / 6
	rem := int(id) % 6
	dim = rem / 2
	if rem%2 == 0 {
		step = 1
	} else {
		step = -1
	}
	return
}

// TestRoutePropertyRandomPairs: for random tori and random PE pairs, the
// route length equals the Manhattan-distance-on-a-torus, routes are
// deterministic, and every route is a connected walk from src to dst.
func TestRoutePropertyRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := [][3]int{{4, 4, 4}, {4, 4, 2}, {8, 2, 2}, {5, 3, 2}, {7, 1, 1}, {2, 2, 2}, {16, 2, 1}}
	for _, d := range dims {
		numPE := d[0] * d[1] * d[2]
		n := mustNew(t, Config{Kind: KindTorus, X: d[0], Y: d[1], Z: d[2]}, numPE)
		for trial := 0; trial < 200; trial++ {
			src, dst := rng.Intn(numPE), rng.Intn(numPE)
			want := torusManhattan(n, src, dst)
			if got := n.Hops(src, dst); got != want {
				t.Fatalf("%v: Hops(%d,%d) = %d, torus Manhattan distance %d", d, src, dst, got, want)
			}
			route := append([]int32(nil), n.Route(src, dst)...)
			if len(route) != want {
				t.Fatalf("%v: route %d->%d has %d links, distance is %d", d, src, dst, len(route), want)
			}
			again := append([]int32(nil), n.Route(src, dst)...)
			if !reflect.DeepEqual(route, again) {
				t.Fatalf("%v: route %d->%d not deterministic: %v vs %v", d, src, dst, route, again)
			}
			// The route must be a connected dimension-order walk ending at dst.
			cur := src
			lastDim := -1
			for _, id := range route {
				node, dim, step := endpoints(n, id)
				if node != cur {
					t.Fatalf("%v: route %d->%d: link %s leaves node %d, walk is at %d",
						d, src, dst, n.LinkName(id), node, cur)
				}
				if dim < lastDim {
					t.Fatalf("%v: route %d->%d visits dimension %d after %d (not dimension-ordered)",
						d, src, dst, dim, lastDim)
				}
				lastDim = dim
				x, y, z := n.Coord(cur)
				c := [3]int{x, y, z}
				size := [3]int{}
				size[0], size[1], size[2] = n.Dims()
				c[dim] = mod(c[dim]+step, size[dim])
				cur = n.PEAt(c[0], c[1], c[2])
			}
			if cur != dst {
				t.Fatalf("%v: route %d->%d ends at %d", d, src, dst, cur)
			}
		}
	}
}

// TestRouteUsesWraparound: when the wraparound walk is strictly shorter,
// the route crosses the seam (a link whose endpoints' coordinates differ
// by size-1 in the routed dimension).
func TestRouteUsesWraparound(t *testing.T) {
	n := mustNew(t, Config{Kind: KindTorus, X: 8, Y: 1, Z: 1}, 8)
	// 0 -> 6 is 2 hops backwards over the seam, 6 hops forward.
	if got := n.Hops(0, 6); got != 2 {
		t.Fatalf("Hops(0,6) on a ring of 8 = %d, want 2 via wraparound", got)
	}
	route := n.Route(0, 6)
	if len(route) != 2 {
		t.Fatalf("route 0->6 = %v, want 2 links", route)
	}
	node, dim, step := endpoints(n, route[0])
	if node != 0 || dim != 0 || step != -1 {
		t.Fatalf("route 0->6 should start with the -x seam link out of 0, got %s", n.LinkName(route[0]))
	}
	// And the direct direction when that is shorter: 0 -> 2.
	route = n.Route(0, 2)
	if len(route) != 2 {
		t.Fatalf("route 0->2 = %v, want 2 links", route)
	}
	if _, _, step := endpoints(n, route[0]); step != 1 {
		t.Fatalf("route 0->2 should go +x, got %s", n.LinkName(route[0]))
	}
}

func TestAutoDims(t *testing.T) {
	cases := []struct{ n, x, y, z int }{
		{64, 4, 4, 4}, {32, 4, 4, 2}, {16, 4, 2, 2}, {8, 2, 2, 2},
		{4, 2, 2, 1}, {2, 2, 1, 1}, {1, 1, 1, 1}, {7, 7, 1, 1}, {12, 3, 2, 2},
	}
	for _, c := range cases {
		x, y, z := AutoDims(c.n)
		if x*y*z != c.n {
			t.Fatalf("AutoDims(%d) = %dx%dx%d, product %d", c.n, x, y, z, x*y*z)
		}
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("AutoDims(%d) = %dx%dx%d, want %dx%dx%d", c.n, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestParse(t *testing.T) {
	for _, s := range []string{"flat", "", "Flat"} {
		cfg, err := Parse(s)
		if err != nil || cfg.Kind != KindFlat {
			t.Fatalf("Parse(%q) = %+v, %v", s, cfg, err)
		}
	}
	cfg, err := Parse("torus")
	if err != nil || cfg.Kind != KindTorus || cfg.X != 0 {
		t.Fatalf("Parse(torus) = %+v, %v", cfg, err)
	}
	cfg, err = Parse("4x2x1")
	if err != nil || cfg.Kind != KindTorus || cfg.X != 4 || cfg.Y != 2 || cfg.Z != 1 {
		t.Fatalf("Parse(4x2x1) = %+v, %v", cfg, err)
	}
	for _, bad := range []string{"mesh", "4x4", "0x4x4", "-1x2x2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	if err := (Config{Kind: KindTorus, X: 4, Y: 4, Z: 4}).Validate(32); err == nil {
		t.Error("4x4x4 over 32 PEs should fail validation")
	}
	if err := (Config{Kind: KindTorus}).Validate(17); err != nil {
		t.Errorf("auto-dims torus over 17 PEs: %v", err)
	}
}

// TestContentionQueueing: two same-time messages over a shared link queue;
// disjoint routes do not interact.
func TestContentionQueueing(t *testing.T) {
	n := mustNew(t, Config{Kind: KindTorus, X: 4, Y: 1, Z: 1}, 4)
	hop, word := n.Config().HopCost, n.Config().WordCost
	// First message 0->1: uncontended.
	a1, w1 := n.Send(0, 1, 10, 100, 0)
	if w1 != 0 {
		t.Fatalf("first message waited %d", w1)
	}
	if want := 100 + hop + 10*word; a1 != want {
		t.Fatalf("first message arrives %d, want %d", a1, want)
	}
	// Second message over the same link at the same time: queues behind the
	// first's occupancy (hop + 10 words).
	a2, w2 := n.Send(0, 1, 10, 100, 0)
	if w2 != hop+10*word {
		t.Fatalf("second message waited %d, want %d", w2, hop+10*word)
	}
	if a2 <= a1 {
		t.Fatalf("second message arrives %d, not after first %d", a2, a1)
	}
	// A message on a disjoint link is unaffected.
	if _, w := n.Send(2, 3, 10, 100, 0); w != 0 {
		t.Fatalf("disjoint message waited %d", w)
	}
	// An earlier gap still fits a later-booked message (first-fit).
	if _, w := n.Send(0, 1, 1, 0, 0); w != 0 {
		t.Fatalf("gap-filling message waited %d", w)
	}
	// After the epoch drains, the schedules are clear again.
	n.EndEpoch()
	if _, w := n.Send(0, 1, 10, 100, 0); w != 0 {
		t.Fatalf("post-epoch message waited %d", w)
	}
	s := n.Summary(1000)
	if s.Messages != 5 || s.Contended != 1 || s.WaitCycles != w2 {
		t.Fatalf("summary %+v: want 5 msgs, 1 contended, wait %d", s, w2)
	}
	if s.MaxLinkUtil() <= 0 || s.HottestLink() == "" {
		t.Fatalf("summary has no hotspot: %+v", s)
	}
}

// TestHotspotHolds: a hotspot message holds its injection link so later
// traffic queues behind the fault.
func TestHotspotHolds(t *testing.T) {
	n := mustNew(t, Config{Kind: KindTorus, X: 4, Y: 1, Z: 1}, 4)
	hop, word := n.Config().HopCost, n.Config().WordCost
	const spike = 500
	a1, _ := n.Send(0, 1, 1, 100, spike)
	if want := 100 + spike + hop + word; a1 != want {
		t.Fatalf("hotspot message arrives %d, want %d", a1, want)
	}
	_, w2 := n.Send(0, 1, 1, 100, 0)
	if w2 < spike {
		t.Fatalf("follower waited %d, want >= %d (queued behind the hotspot)", w2, spike)
	}
}

// TestRoundTripDistance: the round-trip latency grows with hop distance
// and matches the documented formula on an idle network.
func TestRoundTripDistance(t *testing.T) {
	n := mustNew(t, Config{Kind: KindTorus, X: 4, Y: 4, Z: 4}, 64)
	cfg := n.Config()
	lat := func(dst int) int64 {
		n.EndEpoch()
		arrive, wait := n.RoundTrip(0, dst, 1, 0, 0)
		if wait != 0 {
			t.Fatalf("idle round trip to %d waited %d", dst, wait)
		}
		return arrive
	}
	near := lat(1)                                                // 1 hop each way
	far := lat(42)                                                // (2,2,2): 6 hops each way
	wantNear := cfg.RemoteBaseCost + 2*(cfg.HopCost+cfg.WordCost) // 1 hop, 1 word each way
	if near != wantNear {
		t.Fatalf("neighbor round trip = %d, want %d", near, wantNear)
	}
	if far <= near {
		t.Fatalf("far round trip %d not slower than neighbor %d", far, near)
	}
	if want := cfg.RemoteBaseCost + 2*(6*cfg.HopCost+cfg.WordCost); far != want {
		t.Fatalf("far round trip = %d, want %d", far, want)
	}
}

// Reset must return the network to its just-built state: replaying the
// same traffic must reproduce identical results and summary.
func TestNetworkReset(t *testing.T) {
	run := func(n *Network) ([][2]int64, *Summary) {
		rng := rand.New(rand.NewSource(3))
		var out [][2]int64
		now := int64(0)
		for i := 0; i < 300; i++ {
			src, dst := rng.Intn(8), rng.Intn(8)
			now += int64(rng.Intn(10))
			a, w := n.RoundTrip(src, dst, int64(1+rng.Intn(16)), now, 0)
			out = append(out, [2]int64{a, w})
		}
		return out, n.Summary(100000)
	}
	n := mustNew(t, Config{Kind: KindTorus}, 8)
	r1, s1 := run(n)
	n.Reset()
	r2, s2 := run(n)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("per-transaction results differ after Reset")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summary differs after Reset:\n%+v\n%+v", s1, s2)
	}
}
