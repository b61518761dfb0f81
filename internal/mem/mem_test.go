package mem

import (
	"testing"

	"repro/internal/craft"
	"repro/internal/ir"
	"repro/internal/workloads"
)

func TestLayoutAlignsToLines(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 10, 6)
	tp := b.Array("T", 7)
	c := b.SharedArray("B", 8)
	b.Routine("main", ir.Set(ir.At(tp, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	if a.Base%4 != 0 || tp.Base%4 != 0 || c.Base%4 != 0 {
		t.Errorf("bases not line aligned: %d %d %d", a.Base, tp.Base, c.Base)
	}
	if a.Base != 0 || tp.Base != 64 || c.Base != 76 {
		t.Errorf("bases = %d %d %d", a.Base, tp.Base, c.Base)
	}
	if total != 88 {
		t.Errorf("total = %d", total)
	}
}

func TestMemoryReadWriteGenerations(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 16)
	b.Routine("main", ir.Set(ir.At(a, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	m := New(p, 4, total)

	addr := AddrOf(a, []int64{5})
	if v, g := m.Read(addr); v != 0 || g != 0 {
		t.Errorf("initial read = %v gen %d", v, g)
	}
	if g := m.Write(addr, 3.5); g != 1 {
		t.Errorf("gen after write = %d", g)
	}
	if v, g := m.Read(addr); v != 3.5 || g != 1 {
		t.Errorf("read after write = %v gen %d", v, g)
	}
	m.Write(addr, 4.5)
	if m.Gen(addr) != 2 {
		t.Errorf("gen = %d", m.Gen(addr))
	}
}

func TestOwnerAndArrayLookup(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 8, 8) // 64 words, 8 cols over 4 PEs: 2 cols each
	tp := b.Array("T", 4)
	b.Routine("main", ir.Set(ir.At(tp, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	m := New(p, 4, total)

	if m.ArrayOf(0) != a || m.ArrayOf(63) != a || m.ArrayOf(68) != tp {
		t.Error("ArrayOf wrong")
	}
	if m.ArrayOf(64) != nil {
		t.Error("padding word attributed to an array")
	}
	if m.ArrayOf(total) != nil {
		t.Error("ArrayOf out of range should be nil")
	}
	// Column k (stride 8) belongs to PE k/2.
	for k := int64(0); k < 8; k++ {
		addr := AddrOf(a, []int64{3, k})
		if got := m.OwnerOf(addr); got != int(k/2) {
			t.Errorf("col %d owner = %d, want %d", k, got, k/2)
		}
	}
	// Private array owned by PE 0.
	if m.OwnerOf(AddrOf(tp, []int64{1})) != 0 {
		t.Error("private array not owned by 0")
	}
}

func TestArrayDataView(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 4)
	b.Routine("main", ir.Set(ir.At(a, ir.K(0)), ir.N(0)))
	p := b.Build()
	m := New(p, 2, Layout(p, 4))
	m.Write(AddrOf(a, []int64{2}), 9)
	if d := m.ArrayData(a); len(d) != 4 || d[2] != 9 {
		t.Errorf("ArrayData = %v", d)
	}
}

func TestAddrOfBoundsPanic(t *testing.T) {
	a := &ir.Array{Name: "A", Dims: []int64{4}}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range AddrOf did not panic")
		}
	}()
	AddrOf(a, []int64{4})
}

// arrayScan is ArrayOf by linear scan: the reference the binary search in
// find is checked against.
func arrayScan(p *ir.Program, addr int64) *ir.Array {
	for _, a := range p.Arrays {
		if addr >= a.Base && addr < a.Base+a.Size() {
			return a
		}
	}
	return nil
}

// TestOwnerOfMatchesCraftEveryWord checks the precomputed owner divisor
// against craft's slab geometry for every word of the address space —
// every element of every array and the padding between them — on the
// four applications at small and tiny shapes, including PE counts that do
// not divide the distributed extents.
func TestOwnerOfMatchesCraftEveryWord(t *testing.T) {
	specs := []func() *workloads.Spec{
		func() *workloads.Spec { return workloads.MXM(32, 16, 8) },
		func() *workloads.Spec { return workloads.VPENTA(32, 2) },
		func() *workloads.Spec { return workloads.TOMCATV(33, 2) },
		func() *workloads.Spec { return workloads.SWIM(33, 2) },
		func() *workloads.Spec { return workloads.MXM(5, 4, 3) },
		func() *workloads.Spec { return workloads.VPENTA(5, 1) },
		func() *workloads.Spec { return workloads.TOMCATV(9, 1) },
		func() *workloads.Spec { return workloads.SWIM(9, 1) },
	}
	for _, build := range specs {
		spec := build()
		p := spec.Prog
		total := Layout(p, 4)
		for _, numPE := range []int{1, 2, 3, 7, 8, 64} {
			m := New(p, numPE, total)
			padding := 0
			for addr := int64(0); addr < total; addr++ {
				a := arrayScan(p, addr)
				if got := m.ArrayOf(addr); got != a {
					t.Fatalf("%s P=%d addr %d: ArrayOf %v, want %v", spec.Name, numPE, addr, got, a)
				}
				want := 0
				if a != nil {
					want = craft.OwnerOfOffset(a, numPE, addr-a.Base)
				} else {
					padding++
				}
				if got := m.OwnerOf(addr); got != want {
					t.Fatalf("%s P=%d addr %d: OwnerOf %d, want %d", spec.Name, numPE, addr, got, want)
				}
			}
			if padding == 0 {
				t.Fatalf("%s: no padding words checked", spec.Name)
			}
		}
	}
}
