// Package fault is a deterministic, seeded fault-injection layer for the
// T3D machine model. It perturbs the timing-and-loss behaviour of the
// simulated memory system — dropped prefetch-queue entries, late prefetch
// arrivals, remote-latency spikes, forced cache-line evictions, per-PE
// clock skew — without ever corrupting memory contents, mirroring the
// fault classes a real non-coherent machine exhibits (lost or delayed
// network packets, contention, conflict evictions, drifting clocks).
//
// Reproducibility is the design center: a Plan carries a seed and every PE
// draws from its own RNG stream derived from that seed, so results are
// bit-identical across runs. A zero Plan (rate 0) is the fault-free machine.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kind identifies one class of injected fault.
type Kind int

const (
	// KindDrop silently discards a prefetch-queue issue (models a lost
	// prefetch packet; the consumer must demote to a bypass fetch).
	KindDrop Kind = iota
	// KindLate delays a prefetch's arrival past its scheduled ready time
	// (models network contention on the prefetch path).
	KindLate
	// KindSpike adds latency to a demand remote read (models hot-spotting
	// on the target node).
	KindSpike
	// KindEvict forces the cache line a read is about to consult out of
	// the cache (models conflict misses from interleaved private data).
	KindEvict
	// KindSkew offsets a PE's clock at epoch entry (models OS jitter and
	// drifting per-node clocks feeding the barrier).
	KindSkew

	numKinds = int(KindSkew) + 1
)

var kindNames = [...]string{
	KindDrop:  "drop",
	KindLate:  "late",
	KindSpike: "spike",
	KindEvict: "evict",
	KindSkew:  "skew",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds returns every defined fault kind, in declaration order.
func AllKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// ParseKinds parses a comma-separated fault-kind list ("drop,late,evict").
// The special value "all" (or an empty string) selects every kind.
// Duplicates collapse; unknown names are an error.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllKinds(), nil
	}
	seen := map[Kind]bool{}
	var ks []Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := Kind(-1)
		for i, name := range kindNames {
			if part == name {
				found = Kind(i)
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("fault: unknown kind %q (valid: %s, or \"all\")",
				part, strings.Join(kindNames[:], ","))
		}
		if !seen[found] {
			seen[found] = true
			ks = append(ks, found)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks, nil
}

// FormatKinds renders a kind set in ParseKinds syntax.
func FormatKinds(ks []Kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// Default magnitudes, in cycles, used when the Plan leaves them zero. The
// values sit in the same band as the T3D's remote-read cost so an injected
// fault is visible in cycle counts without dwarfing the workload.
const (
	DefaultLateExtraCycles  = 200
	DefaultSpikeExtraCycles = 400
	DefaultSkewMaxCycles    = 64
	DefaultMaxDemotions     = 1 << 20
)

// Plan configures fault injection for one run. The zero value disables
// injection entirely.
type Plan struct {
	// Seed roots every per-PE RNG stream; two runs with equal plans see
	// identical fault sequences.
	Seed int64
	// Rate is the per-opportunity fault probability in [0,1]. 0 disables
	// injection.
	Rate float64
	// Kinds lists the enabled fault classes. Empty disables injection.
	Kinds []Kind

	// LateExtraCycles is the extra delay for a late prefetch arrival
	// (default DefaultLateExtraCycles).
	LateExtraCycles int64
	// SpikeExtraCycles is the extra latency for a remote-read spike
	// (default DefaultSpikeExtraCycles).
	SpikeExtraCycles int64
	// SkewMaxCycles bounds the uniform per-epoch clock skew
	// (default DefaultSkewMaxCycles).
	SkewMaxCycles int64
	// MaxDemotions bounds each PE's bypass-fetch retry budget; the run
	// fails loudly once a PE exhausts it (default DefaultMaxDemotions).
	MaxDemotions int64
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool { return p.Rate > 0 && len(p.Kinds) > 0 }

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("fault: rate %v outside [0,1]", p.Rate)
	}
	for _, k := range p.Kinds {
		if k < 0 || int(k) >= numKinds {
			return fmt.Errorf("fault: invalid kind %d", int(k))
		}
	}
	if p.LateExtraCycles < 0 || p.SpikeExtraCycles < 0 || p.SkewMaxCycles < 0 || p.MaxDemotions < 0 {
		return fmt.Errorf("fault: negative magnitude in plan %+v", p)
	}
	return nil
}

// Reseed returns a copy of the plan rooted at a different seed, for
// retry-with-fresh-faults paths. The derivation is deterministic.
func (p Plan) Reseed(attempt int) Plan {
	cp := p
	cp.Seed = p.Seed + int64(attempt)*0x9e3779b9
	return cp
}

func (p Plan) String() string {
	if !p.Enabled() {
		return "fault: off"
	}
	return fmt.Sprintf("fault: rate=%g kinds=%s seed=%d", p.Rate, FormatKinds(p.Kinds), p.Seed)
}

// Counts tallies injected faults by kind.
type Counts struct {
	Drops     int64
	Lates     int64
	Spikes    int64
	Evictions int64
	Skews     int64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Drops += o.Drops
	c.Lates += o.Lates
	c.Spikes += o.Spikes
	c.Evictions += o.Evictions
	c.Skews += o.Skews
}

// Total is the number of faults injected across all kinds.
func (c Counts) Total() int64 {
	return c.Drops + c.Lates + c.Spikes + c.Evictions + c.Skews
}

// Injector owns the per-PE fault streams for one run.
type Injector struct {
	plan Plan
	pes  []*PE
}

// NewInjector builds the per-PE streams for numPE processors. Returns nil
// for a disabled plan, so callers can use a nil check as the fast path.
func NewInjector(plan Plan, numPE int) *Injector {
	if !plan.Enabled() {
		return nil
	}
	if plan.LateExtraCycles == 0 {
		plan.LateExtraCycles = DefaultLateExtraCycles
	}
	if plan.SpikeExtraCycles == 0 {
		plan.SpikeExtraCycles = DefaultSpikeExtraCycles
	}
	if plan.SkewMaxCycles == 0 {
		plan.SkewMaxCycles = DefaultSkewMaxCycles
	}
	if plan.MaxDemotions == 0 {
		plan.MaxDemotions = DefaultMaxDemotions
	}
	inj := &Injector{plan: plan, pes: make([]*PE, numPE)}
	var kinds [numKinds]bool
	for _, k := range plan.Kinds {
		kinds[k] = true
	}
	for i := range inj.pes {
		// splitmix-style seed spreading keeps adjacent PE streams
		// uncorrelated even for small seeds.
		s := plan.Seed + int64(i+1)*int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
		s ^= s >> 30
		inj.pes[i] = &PE{
			id:    i,
			plan:  plan,
			kinds: kinds,
			rng:   rand.New(rand.NewSource(s)),
		}
	}
	return inj
}

// Plan returns the (default-filled) plan the injector runs.
func (inj *Injector) Plan() Plan { return inj.plan }

// PE returns processor id's private fault stream.
func (inj *Injector) PE(id int) *PE { return inj.pes[id] }

// Counts sums the per-PE fault tallies.
func (inj *Injector) Counts() Counts {
	var c Counts
	for _, pe := range inj.pes {
		c.Add(pe.counts)
	}
	return c
}

// PE is one processor's deterministic fault stream. Not safe for use from
// multiple goroutines — each simulated PE owns exactly one.
type PE struct {
	id     int
	plan   Plan
	kinds  [numKinds]bool
	rng    *rand.Rand
	counts Counts
}

func (pe *PE) roll(k Kind) bool {
	if !pe.kinds[k] {
		return false
	}
	return pe.rng.Float64() < pe.plan.Rate
}

// DropPrefetch reports whether the prefetch being issued is lost in
// flight. The issue should be skipped entirely.
func (pe *PE) DropPrefetch() bool {
	if !pe.roll(KindDrop) {
		return false
	}
	pe.counts.Drops++
	return true
}

// LateDelay returns extra cycles to add to a prefetch's arrival time
// (0 = on time).
func (pe *PE) LateDelay() int64 {
	if !pe.roll(KindLate) {
		return 0
	}
	pe.counts.Lates++
	return pe.plan.LateExtraCycles
}

// RemoteSpike returns extra latency for a demand remote read (0 = none).
func (pe *PE) RemoteSpike() int64 {
	if !pe.roll(KindSpike) {
		return 0
	}
	pe.counts.Spikes++
	return pe.plan.SpikeExtraCycles
}

// EvictLine reports whether the line about to be consulted is forced out
// of the cache first.
func (pe *PE) EvictLine() bool {
	if !pe.roll(KindEvict) {
		return false
	}
	pe.counts.Evictions++
	return true
}

// ClockSkew returns this PE's clock offset for the epoch being entered,
// uniform in [0, SkewMaxCycles].
func (pe *PE) ClockSkew() int64 {
	if !pe.roll(KindSkew) {
		return 0
	}
	pe.counts.Skews++
	return pe.rng.Int63n(pe.plan.SkewMaxCycles + 1)
}

// Counts returns this PE's tally so far.
func (pe *PE) Counts() Counts { return pe.counts }

// MaxDemotions is the PE's bypass-fetch retry budget (default-filled).
func (pe *PE) MaxDemotions() int64 { return pe.plan.MaxDemotions }

// Violation records one coherence-oracle hit: a PE consumed a word whose
// generation stamp is older than memory's current generation for that
// address — exactly the stale read CCDP promises never happens.
type Violation struct {
	PE     int    // consuming processor
	Addr   int64  // global word address
	Array  string // owning array name ("" if unknown)
	Ref    string // source reference text ("" if unknown)
	Gen    uint32 // generation the PE consumed
	MemGen uint32 // memory's generation at consumption time
	Cycle  int64  // PE-local cycle of the consumption
}

func (v Violation) Error() string {
	where := v.Array
	if v.Ref != "" {
		where = v.Ref
	}
	if where == "" {
		where = fmt.Sprintf("addr %d", v.Addr)
	}
	return fmt.Sprintf("coherence violation: PE %d consumed stale %s (addr %d, gen %d < mem gen %d) at cycle %d",
		v.PE, where, v.Addr, v.Gen, v.MemGen, v.Cycle)
}
