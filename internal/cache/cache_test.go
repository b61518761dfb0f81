package cache

import "testing"

func fill(vals float64, gens uint32) ([]float64, []uint32) {
	v := make([]float64, 4)
	g := make([]uint32, 4)
	for i := range v {
		v[i] = vals + float64(i)
		g[i] = gens
	}
	return v, g
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(64, 4) // 16 lines
	if _, _, _, hit := c.Lookup(10); hit {
		t.Fatal("cold cache hit")
	}
	v, g := fill(100, 7)
	c.Install(10, v, g, 42)
	val, gen, ready, hit := c.Lookup(10)
	if !hit || val != 102 || gen != 7 || ready != 42 {
		t.Errorf("Lookup = %v %v %v %v", val, gen, ready, hit)
	}
	// Same line, different word.
	if val, _, _, hit := c.Lookup(8); !hit || val != 100 {
		t.Errorf("line sharing: %v %v", val, hit)
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(64, 4) // 16 lines: addresses 0 and 64 conflict
	v, g := fill(0, 1)
	c.Install(0, v, g, 0)
	v2, g2 := fill(50, 1)
	if evicted := c.Install(64, v2, g2, 0); !evicted {
		t.Error("conflicting install did not evict")
	}
	if _, _, _, hit := c.Lookup(0); hit {
		t.Error("evicted line still hits")
	}
	if val, _, _, hit := c.Lookup(64); !hit || val != 50 {
		t.Error("new line not resident")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d", c.Evictions)
	}
}

func TestUpdateWord(t *testing.T) {
	c := New(64, 4)
	v, g := fill(0, 1)
	c.Install(4, v, g, 0)
	if !c.UpdateWord(5, 99, 8) {
		t.Fatal("update of resident word failed")
	}
	val, gen, _, hit := c.Lookup(5)
	if !hit || val != 99 || gen != 8 {
		t.Errorf("after update: %v %v", val, gen)
	}
	if c.UpdateWord(200, 1, 1) {
		t.Error("update of absent word succeeded (write-allocate?)")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(64, 4)
	v, g := fill(0, 1)
	c.Install(0, v, g, 0)
	c.Install(8, v, g, 0)
	c.Install(20, v, g, 0)
	// Invalidate words 7..9: lines 4..7 and 8..11 intersect.
	if n := c.InvalidateRange(7, 9); n != 1 {
		t.Errorf("invalidated %d lines, want 1 (line 8..11)", n)
	}
	if c.Contains(8) {
		t.Error("line 8 still resident")
	}
	if !c.Contains(0) || !c.Contains(20) {
		t.Error("unrelated lines dropped")
	}
	if n := c.InvalidateAll(); n != 2 {
		t.Errorf("InvalidateAll dropped %d", n)
	}
}

// TestLineIndexingMatchesDivision checks that the shift-and-mask indexing
// of power-of-two geometries agrees with the division form, and that the
// other geometries keep division, for every address in a range that wraps
// the cache several times.
func TestLineIndexingMatchesDivision(t *testing.T) {
	for _, g := range []struct {
		capacity, lineWords int64
		shifted             bool
	}{
		{1024, 4, true},
		{64, 1, true},
		{1024, 3, false}, // 3-word lines
		{96, 4, false},   // 24 lines
		{96, 3, false},
	} {
		for _, c := range append(NewFleet(1, g.capacity, g.lineWords), New(g.capacity, g.lineWords)) {
			if got := c.lineShift >= 0; got != g.shifted {
				t.Fatalf("capacity %d line %d: shifted %v, want %v", g.capacity, g.lineWords, got, g.shifted)
			}
			for addr := int64(0); addr < 4*g.capacity+7; addr++ {
				la := addr - addr%g.lineWords
				if got := c.lineAddr(addr); got != la {
					t.Fatalf("capacity %d line %d: lineAddr(%d) = %d, want %d", g.capacity, g.lineWords, addr, got, la)
				}
				if got, want := c.slot(la), (la/g.lineWords)%c.numLines; got != want {
					t.Fatalf("capacity %d line %d: slot(%d) = %d, want %d", g.capacity, g.lineWords, la, got, want)
				}
			}
		}
	}
}
