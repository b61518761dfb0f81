// Package shmem models the Cray SHMEM library's shmem_get as the paper's
// realization of a vector prefetch (§5.1): a blocking block transfer with a
// fixed startup cost and a pipelined per-word cost that deposits remote
// data where the PE can access it at cache speed. The model installs the
// transferred lines into the PE's cache (the "local buffer" a real code
// would copy into is itself cached on first touch; installing directly
// avoids double-counting while preserving capacity and conflict behaviour).
package shmem

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Faults carries optional fault-injection hooks for one transfer; nil (or a
// nil field) disables that fault. Hooks are polled once per distinct cache
// line in address order, so a seeded caller sees a deterministic schedule.
type Faults struct {
	// DropLine reports that the line is lost in flight: it is charged for
	// but not installed.
	DropLine func() bool
	// LateDelay returns extra cycles before the line becomes usable
	// (added to the installed line's ready time).
	LateDelay func() int64
}

// DropSet is the set of cache-line addresses a transfer lost in flight.
// Lines() is sorted ascending, so iteration is deterministic.
type DropSet struct {
	lines []int64
}

// NoDrops is the shared empty drop set: every fault-free transfer returns
// it, so the common path allocates nothing.
var NoDrops = &DropSet{}

// Contains reports whether line address la was dropped.
func (d *DropSet) Contains(la int64) bool {
	for _, x := range d.lines {
		if x == la {
			return true
		}
	}
	return false
}

// Len returns the number of dropped lines.
func (d *DropSet) Len() int { return len(d.lines) }

// Lines returns the dropped line addresses, sorted ascending. The slice is
// owned by the transfer's Scratch and valid until its next Get.
func (d *DropSet) Lines() []int64 { return d.lines }

// pending is one surviving line of a transfer with its injected lateness.
type pending struct {
	la   int64
	late int64
}

// Scratch holds the per-caller reusable buffers of a transfer, so a PE's
// steady-state gets allocate nothing. A nil Scratch is accepted everywhere
// and makes the call allocate a private one (the original behaviour);
// long-lived callers keep one per PE. Not safe for concurrent use.
type Scratch struct {
	seen    *bitset.Sparse // distinct lines this call, keyed by line index
	perHome [][]pending    // surviving lines grouped by home PE
	vals    []float64      // one line of values for cache install
	gens    []uint32
	drops   []int64
	dropSet DropSet
}

// NewScratch sizes a Scratch for transfers against m under mp.
func NewScratch(m *mem.Memory, mp machine.Params) *Scratch {
	homes := m.NumPE()
	if homes < 1 {
		homes = 1
	}
	return &Scratch{
		seen:    bitset.NewSparse(m.Words()/mp.LineWords + 1),
		perHome: make([][]pending, homes),
		vals:    make([]float64, mp.LineWords),
		gens:    make([]uint32, mp.LineWords),
	}
}

// LineBuffers exposes the Scratch's one-line value/generation buffers so
// the owning PE's demand-fill path can reuse them between transfers (the
// cache copies on Install, so the buffers are free outside GetOverNet).
func (sc *Scratch) LineBuffers() ([]float64, []uint32) { return sc.vals, sc.gens }

func (sc *Scratch) reset() {
	sc.seen.Reset()
	for i := range sc.perHome {
		sc.perHome[i] = sc.perHome[i][:0]
	}
	sc.drops = sc.drops[:0]
}

// finish packages the dropped lines; fault-free transfers share NoDrops.
func (sc *Scratch) finish() *DropSet {
	if len(sc.drops) == 0 {
		return NoDrops
	}
	sort.Slice(sc.drops, func(i, j int) bool { return sc.drops[i] < sc.drops[j] })
	sc.dropSet.lines = sc.drops
	return &sc.dropSet
}

// Get transfers the given word addresses from (possibly remote) memory into
// the PE's cache, fresh as of now, and returns the cycle cost of the
// blocking transfer. Addresses need not be contiguous (strided gets are one
// shmem_iget); each touched cache line is installed whole from memory so
// the generation stamps stay word-accurate. Requesting an address outside
// the laid-out memory is a program bug and panics — fabricating zeros here
// would silently corrupt results.
func Get(m *mem.Memory, c *cache.Cache, mp machine.Params, addrs []int64, now int64) int64 {
	cost, _ := GetWithFaults(m, c, mp, addrs, now, nil)
	return cost
}

// GetWithFaults is Get with fault injection: dropped lines are charged for
// but not installed (the caller must not treat them as locally buffered),
// late lines are installed with a delayed ready time.
func GetWithFaults(m *mem.Memory, c *cache.Cache, mp machine.Params, addrs []int64, now int64, f *Faults) (int64, *DropSet) {
	return GetOverNet(m, c, mp, nil, 0, addrs, now, f, nil)
}

// GetOverNet is GetWithFaults routed over an interconnect model: tr is
// a *noc.Network (single-goroutine canonical booking) or one of the
// engine's speculative transports (a PE's private *noc.SpecRecorder, or
// the re-execution memo), whose results validation holds to the
// Network's. With a nil
// transport it reproduces the flat model bit-identically: the blocking
// cost is ShmemStartupCost + len(addrs)·ShmemPerWordCost regardless of
// where the data lives. Over a torus, the surviving lines are grouped by
// their home PE and each home sends one pipelined reply message to src;
// the gathers proceed in parallel, so the blocking cost is the startup
// plus the slowest home's arrival (queueing included), plus the per-word
// copy cost for locally-homed lines. Lines are installed with their own
// message's arrival as ready time — per-message arrival, not a constant.
//
// sc may be nil (a private Scratch is allocated); the returned DropSet is
// valid until the next Get on the same Scratch.
func GetOverNet(m *mem.Memory, c *cache.Cache, mp machine.Params, tr noc.Transport, src int, addrs []int64, now int64, f *Faults, sc *Scratch) (int64, *DropSet) {
	if len(addrs) == 0 {
		return 0, NoDrops
	}
	if sc == nil {
		sc = NewScratch(m, mp)
	}
	sc.reset()
	lw := mp.LineWords

	// First pass: dedupe lines in address order, poll the fault hooks once
	// per surviving line (identical polling order in both topology modes,
	// so a seeded fault stream sees the same schedule), and group lines by
	// home PE (flat: single bucket 0).
	for _, a := range addrs {
		if a < 0 || a >= m.Words() {
			panic(fmt.Sprintf("shmem: get of out-of-range address %d (memory is %d words)", a, m.Words()))
		}
		la := a - a%lw
		if !sc.seen.Add(la / lw) {
			continue
		}
		if f != nil && f.DropLine != nil && f.DropLine() {
			sc.drops = append(sc.drops, la)
			continue
		}
		var late int64
		if f != nil && f.LateDelay != nil {
			late = f.LateDelay()
		}
		home := 0
		if tr != nil {
			home = m.OwnerOf(la)
		}
		sc.perHome[home] = append(sc.perHome[home], pending{la, late})
	}

	install := func(la, readyAt int64) {
		for k := int64(0); k < lw; k++ {
			if la+k >= m.Words() {
				// mem.Layout aligns the total to a line boundary, so a
				// valid word's line never extends past memory.
				panic(fmt.Sprintf("shmem: line %d extends past memory (%d words)", la, m.Words()))
			}
			sc.vals[k], sc.gens[k] = m.Read(la + k)
		}
		c.Install(la, sc.vals, sc.gens, readyAt)
	}

	if tr == nil {
		// Flat model: constant per-word pipelined cost, location-blind.
		for _, p := range sc.perHome[0] {
			install(p.la, now+p.late)
		}
		return mp.ShmemStartupCost + int64(len(addrs))*mp.ShmemPerWordCost, sc.finish()
	}

	// Torus: one reply message per home PE, booked in ascending home order
	// for determinism; the call blocks until the slowest gather lands.
	done := now
	for home := range sc.perHome {
		lines := sc.perHome[home]
		if len(lines) == 0 {
			continue
		}
		if home == src {
			// Locally homed lines: a plain pipelined copy.
			for _, p := range lines {
				install(p.la, now+p.late)
			}
			if t := now + int64(len(lines))*lw*mp.ShmemPerWordCost; t > done {
				done = t
			}
			continue
		}
		arrive, _ := tr.RoundTrip(src, home, int64(len(lines))*lw, now, 0)
		for _, p := range lines {
			install(p.la, arrive+p.late)
		}
		if arrive > done {
			done = arrive
		}
	}
	return mp.ShmemStartupCost + (done - now), sc.finish()
}
