// Package machine defines the architectural parameter set of the simulated
// target — the Cray T3D of the paper — shared by the compiler (which must
// respect hardware constraints when scheduling prefetches, paper §4.3.1) and
// by the execution engine (which charges cycle costs).
//
// All costs are in processor clock cycles of the 150 MHz Alpha 21064 and
// all sizes in 8-byte words. The latency constants follow the T3D numbers
// reported in the papers this work cites (Arpaci et al. ISCA'95, Numrich's
// T3D address-space report): ~20+ cycle local DRAM access, remote reads on
// the order of 100+ cycles round trip, a 16-word prefetch queue whose
// DTB-Annex setup overhead is "significant", and SHMEM block transfers with
// a large startup but pipelined per-word cost.
package machine

import (
	"fmt"

	"repro/internal/noc"
)

// Params describes one machine configuration.
type Params struct {
	// NumPE is the number of processing elements.
	NumPE int

	// --- Cache geometry (Alpha 21064 on-chip D-cache) ---

	// CacheWords is the data cache capacity in words (8 KB = 1024 words).
	CacheWords int64
	// LineWords is the cache line size in words (32 B = 4 words).
	LineWords int64

	// --- Prefetch hardware ---

	// PrefetchQueueWords is the depth of the per-PE prefetch queue
	// (16 one-word slots on the T3D).
	PrefetchQueueWords int
	// PrefetchIssueCost is the cost of setting up the DTB Annex entry and
	// issuing one prefetch instruction.
	PrefetchIssueCost int64
	// PrefetchExtractCost is the cost of popping the prefetched word from
	// the queue when it has already arrived.
	PrefetchExtractCost int64

	// --- Memory system latencies ---

	// HitCost is a load that hits in the data cache (the 21064's D-cache
	// load-use latency).
	HitCost int64
	// LocalMemCost is a cache-line fill from the PE's own DRAM (page-mode
	// burst of one 32-byte line).
	LocalMemCost int64
	// LocalReadCost is a single non-cached local word read through the
	// T3D's read-ahead buffer (the BASE version's local shared accesses
	// stream at close to cached speed — the reason the paper's local-only
	// codes see only modest CCDP gains).
	LocalReadCost int64
	// RemoteReadCost is a round-trip single-word read from a remote PE's
	// memory over the torus.
	RemoteReadCost int64
	// RemoteWriteCost is a (buffered, non-blocking) single-word remote
	// store.
	RemoteWriteCost int64
	// LocalWriteCost is a store to local memory (write-through).
	LocalWriteCost int64

	// --- SHMEM (vector prefetch realization, paper §5.1) ---

	// ShmemStartupCost is the fixed startup of one shmem_get block
	// transfer.
	ShmemStartupCost int64
	// ShmemPerWordCost is the pipelined per-word transfer cost.
	ShmemPerWordCost int64

	// --- Synchronization and runtime (CRAFT) overheads ---

	// BarrierCost is one epoch-boundary barrier.
	BarrierCost int64
	// CraftSharedAccessCost is the extra per-access overhead of a CRAFT
	// shared-data reference in the BASE version (global-address
	// translation through the DTB Annex path).
	CraftSharedAccessCost int64
	// CraftDosharedSetupCost is the fixed per-epoch overhead of the
	// doshared work-distribution primitives in the BASE version.
	CraftDosharedSetupCost int64
	// CCDPLoopSetupCost is the (smaller) fixed per-epoch overhead of the
	// CCDP version's direct iteration assignment (paper §5.2: CCDP codes
	// assign loop iterations directly instead of using doshared).
	CCDPLoopSetupCost int64
	// DynamicSchedCost is the per-iteration cost of dynamic DOALL
	// scheduling (fetch-and-add on a shared counter).
	DynamicSchedCost int64
	// InvalidateLineCost is the per-line cost of compiler-directed cache
	// invalidation at an epoch boundary.
	InvalidateLineCost int64

	// --- Computation costs ---

	// FlopCost is one floating-point operation.
	FlopCost int64
	// StmtOverheadCost is the fixed instruction overhead of one assignment
	// statement instance (address arithmetic, loads/stores issue).
	StmtOverheadCost int64
	// LoopIterCost is the loop-control overhead per iteration.
	LoopIterCost int64

	// --- Compiler scheduling tunables (paper §4.3.2: "empirically
	// determined and tuned to suit a particular system") ---

	// MinAheadIters / MaxAheadIters bound the software-pipelining prefetch
	// distance in iterations.
	MinAheadIters int64
	MaxAheadIters int64
	// MinMoveBackCycles / MaxMoveBackCycles bound the useful moving-back
	// distance in estimated cycles.
	MinMoveBackCycles int64
	MaxMoveBackCycles int64
	// VectorMaxWords caps one vector prefetch (must leave room in the
	// cache; the paper checks against cache size).
	VectorMaxWords int64

	// PrefetchNonStale enables the paper's §6 extension: schedule
	// prefetches for non-stale references that touch remote data, not only
	// for the potentially-stale ones.
	PrefetchNonStale bool

	// --- Hardware coherence arena (internal/coherence; HWDIR modes only) ---

	// DirPointers is the pointer count per line of the limited-pointer
	// directory (Dir_i_B); overflow sets the broadcast bit. Default 1.
	DirPointers int
	// DirSparseLines / DirSparseWays shape the sparse directory cache at
	// each home node: DirSparseLines entries organized DirSparseWays-way
	// set-associative. Defaults 128 / 4.
	DirSparseLines int
	DirSparseWays  int
	// HWPrefetcher names a runtime prefetcher from the
	// internal/coherence/prefetch registry ("" = none) paired with the
	// hardware directory modes.
	HWPrefetcher string
	// HWPrefetchDegree caps how many prefetch suggestions one demand
	// access may issue. Default 2.
	HWPrefetchDegree int
	// DirDropInvalidations is the fuzz campaign's sabotage switch: the
	// directory still books invalidation messages but the target caches
	// never drop their copies, so the coherence oracle must flag the
	// resulting stale reads. Never set outside sabotage tests.
	DirDropInvalidations bool

	// --- Interconnect (internal/noc) ---

	// Topology selects the interconnect model. The zero value (flat)
	// charges the constant Remote*Cost latencies above for every remote
	// access, reproducing the pre-noc simulator bit-identically; KindTorus
	// routes every remote access over a 3D torus with dimension-order
	// routing and per-link contention (the Remote*Cost constants then stop
	// being charged and the noc per-hop/per-word costs take over).
	Topology noc.Config

	// --- Machine profile & coherence domains ---

	// Profile is the registry name this Params was built from (see
	// profile.go). Purely descriptive: reports key on it to decide whether
	// to emit domain columns, so the t3d output stays byte-identical.
	Profile string
	// DomainSize groups consecutive PEs into hardware-coherent coherence
	// domains of this many PEs each (PEs p and q share a domain iff
	// p/DomainSize == q/DomainSize). 0 or 1 means every PE is its own
	// domain — the T3D model, where all coherence is software-managed.
	// Must divide NumPE when > 1.
	DomainSize int
	// NearReadCost / NearWriteCost replace RemoteReadCost / RemoteWriteCost
	// for accesses whose requester and home PE share a coherence domain
	// (the CXL-PCC near tier: same-node hardware-coherent fabric). 0 means
	// the far cost is charged everywhere.
	NearReadCost  int64
	NearWriteCost int64
	// NearBaseCost replaces the torus model's RemoteBaseCost endpoint
	// overhead for intra-domain transfers (0 = keep the far overhead).
	NearBaseCost int64
	// DomainBatchCost is a LazyPIM-style batched coherence settlement
	// charged once per epoch barrier: the cost of reconciling compute-side
	// and memory-side caches at the coarse batch boundary. 0 = none.
	DomainBatchCost int64
}

// DefaultParams is the canonical Cray T3D parameter set (with NumPE = 1
// and the flat interconnect): the single source of truth for every latency
// constant. Tests, sweeps and ablations that need "the T3D number" must
// read it from here rather than repeating the literal.
var DefaultParams = Params{
	NumPE:   1,
	Profile: "t3d",

	CacheWords: 1024, // 8 KB
	LineWords:  4,    // 32 B

	PrefetchQueueWords:  16,
	PrefetchIssueCost:   23,
	PrefetchExtractCost: 3,

	HitCost:         3,
	LocalMemCost:    14,
	LocalReadCost:   6,
	RemoteReadCost:  150,
	RemoteWriteCost: 30,
	LocalWriteCost:  3,

	ShmemStartupCost: 120,
	ShmemPerWordCost: 2,

	BarrierCost:            220,
	CraftSharedAccessCost:  1,
	CraftDosharedSetupCost: 4500,
	CCDPLoopSetupCost:      150,
	DynamicSchedCost:       30,
	InvalidateLineCost:     1,

	FlopCost:         3,
	StmtOverheadCost: 4,
	LoopIterCost:     2,

	MinAheadIters:     1,
	MaxAheadIters:     8,
	MinMoveBackCycles: 40,
	MaxMoveBackCycles: 4000,
	VectorMaxWords:    512, // half the cache

	DirPointers:      1, // Dir_1_B: a second sharer already forces broadcast
	DirSparseLines:   128,
	DirSparseWays:    4,
	HWPrefetchDegree: 2,
}

// T3D returns the Cray T3D configuration with p PEs (DefaultParams scaled
// to p processors; Params is a value type, so the copy is safe to tune).
func T3D(p int) Params {
	mp := DefaultParams
	mp.NumPE = p
	return mp
}

// CacheLines returns the number of lines in the data cache.
func (p Params) CacheLines() int64 { return p.CacheWords / p.LineWords }

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.NumPE < 1 {
		return fmt.Errorf("machine: NumPE %d < 1", p.NumPE)
	}
	if p.LineWords <= 0 || p.CacheWords <= 0 || p.CacheWords%p.LineWords != 0 {
		return fmt.Errorf("machine: cache %d words / line %d words not divisible", p.CacheWords, p.LineWords)
	}
	if p.PrefetchQueueWords <= 0 {
		return fmt.Errorf("machine: prefetch queue %d", p.PrefetchQueueWords)
	}
	if p.MinAheadIters > p.MaxAheadIters || p.MinMoveBackCycles > p.MaxMoveBackCycles {
		return fmt.Errorf("machine: inverted scheduling ranges")
	}
	if p.VectorMaxWords > p.CacheWords {
		return fmt.Errorf("machine: VectorMaxWords %d exceeds cache %d", p.VectorMaxWords, p.CacheWords)
	}
	if p.DomainSize < 0 {
		return fmt.Errorf("machine: DomainSize %d < 0", p.DomainSize)
	}
	if p.DomainSize > 1 && p.NumPE%p.DomainSize != 0 {
		return fmt.Errorf("machine: DomainSize %d does not divide NumPE %d", p.DomainSize, p.NumPE)
	}
	if p.NearReadCost < 0 || p.NearWriteCost < 0 || p.NearBaseCost < 0 || p.DomainBatchCost < 0 {
		return fmt.Errorf("machine: negative domain cost")
	}
	if p.NearReadCost > p.RemoteReadCost {
		return fmt.Errorf("machine: NearReadCost %d exceeds far RemoteReadCost %d", p.NearReadCost, p.RemoteReadCost)
	}
	if p.NearWriteCost > p.RemoteWriteCost {
		return fmt.Errorf("machine: NearWriteCost %d exceeds far RemoteWriteCost %d", p.NearWriteCost, p.RemoteWriteCost)
	}
	if err := p.Topology.Validate(p.NumPE); err != nil {
		return err
	}
	return nil
}

// DomainOf returns the coherence domain of a PE. DomainOf, SameDomain and
// the two CostFor methods run once per simulated remote access, so they
// take a pointer: with a value receiver every call, inlined or not, copies
// the whole Params.
func (p *Params) DomainOf(pe int) int {
	if p.DomainSize <= 1 {
		return pe
	}
	return pe / p.DomainSize
}

// SameDomain reports whether two PEs share a hardware-coherent domain.
func (p *Params) SameDomain(a, b int) bool {
	return p.DomainOf(a) == p.DomainOf(b)
}

// NumDomains returns the number of coherence domains.
func (p Params) NumDomains() int {
	if p.DomainSize <= 1 {
		return p.NumPE
	}
	return p.NumPE / p.DomainSize
}

// DomainTable materializes the PE → domain map for the stale analysis, or
// nil when every PE is its own domain (the analysis then takes its exact
// original domain-blind form).
func (p Params) DomainTable() []int {
	if p.DomainSize <= 1 {
		return nil
	}
	t := make([]int, p.NumPE)
	for pe := range t {
		t[pe] = pe / p.DomainSize
	}
	return t
}

// DomainAware reports whether any coherence-domain behaviour is active —
// multi-PE domains or a batched settlement cost. False for t3d, so every
// domain code path is skipped and t3d stays bit-identical.
func (p Params) DomainAware() bool {
	return p.DomainSize > 1 || p.DomainBatchCost > 0
}

// RemoteReadCostFor returns the single-word remote read latency between a
// requesting PE and the home PE of the data: the near tier inside a
// coherence domain, the far RemoteReadCost across domains (and everywhere
// on machines without domains).
func (p *Params) RemoteReadCostFor(src, home int) int64 {
	if p.NearReadCost > 0 && p.DomainSize > 1 && p.SameDomain(src, home) {
		return p.NearReadCost
	}
	return p.RemoteReadCost
}

// RemoteWriteCostFor is RemoteReadCostFor for buffered remote stores.
func (p *Params) RemoteWriteCostFor(src, home int) int64 {
	if p.NearWriteCost > 0 && p.DomainSize > 1 && p.SameDomain(src, home) {
		return p.NearWriteCost
	}
	return p.RemoteWriteCost
}

// AvgPrefetchLatency is the compiler's estimate of how long a prefetch
// takes to complete (used to pick the software-pipelining distance). On the
// T3D almost all potentially-stale data is remote.
func (p Params) AvgPrefetchLatency() int64 { return p.RemoteReadCost }
