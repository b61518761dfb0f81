// Package noc models the Cray T3D's interconnection network: a 3D torus
// of processing nodes with bidirectional links in each dimension and
// deterministic dimension-order (e-cube) routing, the network the real
// machine used. Remote references, prefetches and SHMEM block transfers
// cross the network as messages; each message pays
//
//	router hops × HopCost  +  payload words × WordCost
//
// plus any time spent queued behind other messages on a busy link. Links
// are reserved wormhole-style: a message occupies every link on its route
// for the time its flits stream through, and a later message wanting the
// same link at an overlapping time waits for a free slot (first-fit into
// the link's idle gaps). Per-link occupancy, queueing waits and hop
// distances are recorded for the observability reports.
//
// Determinism: the Network is NOT safe for concurrent use. The execution
// engine books from a single goroutine in canonical PE-major order (PE p's
// whole epoch before PE p+1's), so cycle counts are a pure function of the
// program and the machine. The zero-value Config (KindFlat) means "no modeled network":
// callers keep the machine model's constant remote latencies and never
// construct a Network at all.
package noc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind selects the interconnect model.
type Kind int

const (
	// KindFlat is the constant-latency model: every remote access costs
	// machine.Params.RemoteReadCost regardless of distance or traffic.
	// It reproduces the pre-noc simulator bit-identically.
	KindFlat Kind = iota
	// KindTorus is the 3D-torus model with dimension-order routing and
	// per-link contention.
	KindTorus
)

func (k Kind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindTorus:
		return "torus"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Default cost parameters, in processor cycles. RemoteBaseCost is
// calibrated so that the MEAN uncontended remote read on the 64-PE 4×4×4
// torus (average 3.05 hops each way) lands on the flat model's 150-cycle
// RemoteReadCost: 55 + 2×3.05×15 + 2×3 ≈ 152. Torus-vs-flat comparisons
// therefore measure the latency *distribution* and contention, not a
// shifted mean.
const (
	DefaultHopCost        = 15   // per router hop per message
	DefaultWordCost       = 3    // per payload word per link (serialization)
	DefaultRemoteBaseCost = 55   // endpoint overhead: home-node memory access + packet assembly
	DefaultDropWaitCycles = 2000 // a prefetch queued longer than this times out (§3.2 demotion)
)

// Config describes one interconnect configuration. The zero value is the
// flat (constant-latency) model.
type Config struct {
	Kind Kind
	// X, Y, Z are the torus dimensions. All zero means "derive near-cubic
	// dimensions from the PE count" (4×4×4 for 64 PEs). When set
	// explicitly, X·Y·Z must equal the machine's NumPE.
	X, Y, Z int
	// HopCost is the router latency per hop per message.
	HopCost int64
	// WordCost is the per-payload-word serialization cost on each link.
	WordCost int64
	// RemoteBaseCost is the fixed per-transfer endpoint overhead (request
	// assembly + home-node memory access).
	RemoteBaseCost int64
	// DropWaitCycles bounds how long a prefetch message may sit queued on
	// busy links before the network drops it (congestion timeout); the
	// consuming read then demotes to a bypass fetch exactly as for a lost
	// prefetch (paper §3.2). Demand (blocking) accesses never drop.
	DropWaitCycles int64
	// DomainPEs and NearBaseCost model coherence domains on the fabric:
	// when DomainPEs > 1, a round trip whose endpoints share a domain
	// (src/DomainPEs == dst/DomainPEs) pays NearBaseCost instead of
	// RemoteBaseCost at the home node — the hardware-coherent near tier.
	// Injected programmatically by the execution engine from the machine
	// profile; never part of the Parse/String CLI syntax, so the zero
	// value keeps every existing config bit-identical.
	DomainPEs    int
	NearBaseCost int64
}

// baseCostFor returns the endpoint overhead of a round trip between src
// and dst: the near tier inside a coherence domain, RemoteBaseCost
// otherwise.
func (c Config) baseCostFor(src, dst int) int64 {
	if c.DomainPEs > 1 && c.NearBaseCost > 0 && src/c.DomainPEs == dst/c.DomainPEs {
		return c.NearBaseCost
	}
	return c.RemoteBaseCost
}

// withDefaults fills zero cost fields with the package defaults.
func (c Config) withDefaults() Config {
	if c.HopCost == 0 {
		c.HopCost = DefaultHopCost
	}
	if c.WordCost == 0 {
		c.WordCost = DefaultWordCost
	}
	if c.RemoteBaseCost == 0 {
		c.RemoteBaseCost = DefaultRemoteBaseCost
	}
	if c.DropWaitCycles == 0 {
		c.DropWaitCycles = DefaultDropWaitCycles
	}
	return c
}

// Validate checks the configuration against a PE count.
func (c Config) Validate(numPE int) error {
	if c.Kind == KindFlat {
		return nil
	}
	if c.X < 0 || c.Y < 0 || c.Z < 0 {
		return fmt.Errorf("noc: negative torus dimension in %dx%dx%d", c.X, c.Y, c.Z)
	}
	if c.X == 0 && c.Y == 0 && c.Z == 0 {
		return nil // auto-derived
	}
	if c.X == 0 || c.Y == 0 || c.Z == 0 {
		return fmt.Errorf("noc: partial torus dimensions %dx%dx%d (set all three or none)", c.X, c.Y, c.Z)
	}
	if c.X*c.Y*c.Z != numPE {
		return fmt.Errorf("noc: torus %dx%dx%d holds %d PEs, machine has %d",
			c.X, c.Y, c.Z, c.X*c.Y*c.Z, numPE)
	}
	if c.HopCost < 0 || c.WordCost < 0 || c.RemoteBaseCost < 0 || c.DropWaitCycles < 0 || c.NearBaseCost < 0 {
		return fmt.Errorf("noc: negative cost parameter in %+v", c)
	}
	return nil
}

// String renders the config in Parse syntax.
func (c Config) String() string {
	if c.Kind == KindFlat {
		return "flat"
	}
	if c.X == 0 && c.Y == 0 && c.Z == 0 {
		return "torus"
	}
	return fmt.Sprintf("%dx%dx%d", c.X, c.Y, c.Z)
}

// Parse reads a -topology flag value: "flat", "torus" (auto dimensions),
// or explicit dimensions like "4x4x4".
func Parse(s string) (Config, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "flat":
		return Config{}, nil
	case "torus":
		return Config{Kind: KindTorus}, nil
	}
	var x, y, z int
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%dx%d", &x, &y, &z); err != nil {
		return Config{}, fmt.Errorf("noc: bad topology %q (want flat, torus, or XxYxZ)", s)
	}
	if x < 1 || y < 1 || z < 1 {
		return Config{}, fmt.Errorf("noc: bad torus dimensions %q", s)
	}
	return Config{Kind: KindTorus, X: x, Y: y, Z: z}, nil
}

// AutoDims factors n into the most nearly cubic x ≥ y ≥ z with x·y·z = n
// (4,4,4 for 64; 4,4,2 for 32; n,1,1 for primes — a ring).
func AutoDims(n int) (x, y, z int) {
	x, y, z = n, 1, 1
	bestSpread := n - 1
	for c := 1; c*c*c <= n; c++ {
		if n%c != 0 {
			continue
		}
		m := n / c
		for b := c; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			a := m / b
			if spread := a - c; spread < bestSpread {
				bestSpread = spread
				x, y, z = a, b, c
			}
		}
	}
	return x, y, z
}

// numDims is the dimensionality of the torus (X, Y, Z).
const numDims = 3

// Network is the simulated interconnect of one run: the topology, the
// per-link reservation schedules of the current epoch, and cumulative
// per-link statistics. Not safe for concurrent use (see package comment).
type Network struct {
	cfg   Config
	numPE int
	dims  [numDims]int

	links []linkState
	// scratch holds the route of the message being sent (no per-message
	// allocation).
	scratch []int32
	// names caches the rendered per-link names ("PE7+x"); built on first
	// LinkName call. Keeping fmt off the Run path makes steady-state
	// allocation counts deterministic (fmt's internal
	// sync.Pool refills after a GC showed up as ±1 allocs/op drift in the
	// benchmarks).
	names []string
	// topoStr caches the rendered topology label (summary.go).
	topoStr string

	// Cumulative message accounting.
	msgs, words, hops, waitCycles, contended int64
	hopHist                                  []int64
	maxWait                                  int64
}

// linkState is one unidirectional link: the busy intervals booked in the
// current epoch (cleared at every barrier — the network drains there) and
// cumulative counters.
type linkState struct {
	ivals []ival

	busy, msgs, words, wait, maxWait int64
}

// ival is one booked busy interval [lo, hi).
type ival struct{ lo, hi int64 }

// New builds the network for cfg over numPE processors. Returns an error
// for invalid explicit dimensions, and a nil network for the flat model.
func New(cfg Config, numPE int) (*Network, error) {
	if cfg.Kind == KindFlat {
		return nil, nil
	}
	if err := cfg.Validate(numPE); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Network{cfg: cfg, numPE: numPE}
	if cfg.X == 0 {
		n.dims[0], n.dims[1], n.dims[2] = AutoDims(numPE)
	} else {
		n.dims[0], n.dims[1], n.dims[2] = cfg.X, cfg.Y, cfg.Z
	}
	// One link per node per dimension per direction (+,−), wraparound
	// links included.
	n.links = make([]linkState, numPE*numDims*2)
	// Pre-size every link's schedule out of one slab: first-fit insertion
	// grows schedules by appending, and letting several hundred links each
	// double their way up dominated the one-shot allocation profile. Hot
	// links that outgrow the seed capacity migrate out of the slab on their
	// first append (three-index slicing keeps neighbors from overlapping).
	const seedIvals = 8
	ivalSlab := make([]ival, len(n.links)*seedIvals)
	for i := range n.links {
		n.links[i].ivals = ivalSlab[i*seedIvals : i*seedIvals : (i+1)*seedIvals][:0]
	}
	maxHops := 0
	for d := 0; d < numDims; d++ {
		maxHops += n.dims[d] / 2
	}
	n.hopHist = make([]int64, maxHops+1)
	n.scratch = make([]int32, 0, maxHops)
	return n, nil
}

// Config returns the (default-filled) configuration the network runs.
func (n *Network) Config() Config { return n.cfg }

// Dims returns the torus dimensions.
func (n *Network) Dims() (x, y, z int) { return n.dims[0], n.dims[1], n.dims[2] }

// Coord maps a PE id to its torus coordinates (x varies fastest).
func (n *Network) Coord(pe int) (x, y, z int) {
	x = pe % n.dims[0]
	y = (pe / n.dims[0]) % n.dims[1]
	z = pe / (n.dims[0] * n.dims[1])
	return
}

// PEAt maps torus coordinates to a PE id.
func (n *Network) PEAt(x, y, z int) int {
	return x + n.dims[0]*(y+n.dims[1]*z)
}

// Hops returns the dimension-order route length between two PEs: the
// Manhattan distance on the torus, taking the wraparound direction in each
// dimension when it is shorter.
func (n *Network) Hops(src, dst int) int {
	sc := [numDims]int{}
	dc := [numDims]int{}
	sc[0], sc[1], sc[2] = n.Coord(src)
	dc[0], dc[1], dc[2] = n.Coord(dst)
	h := 0
	for d := 0; d < numDims; d++ {
		fwd := mod(dc[d]-sc[d], n.dims[d])
		if bwd := n.dims[d] - fwd; fwd > 0 && bwd < fwd {
			h += bwd
		} else {
			h += fwd
		}
	}
	return h
}

// linkID identifies the unidirectional link leaving node in dimension d,
// direction dir (0 = +, 1 = −).
func (n *Network) linkID(node, d, dir int) int32 {
	return int32((node*numDims+d)*2 + dir)
}

// LinkName renders a link id as "PE7+x" (the +x link out of node 7).
// Names are rendered once per network and cached.
func (n *Network) LinkName(id int32) string {
	if n.names == nil {
		n.names = make([]string, len(n.links))
		for i := range n.names {
			node := i / (numDims * 2)
			rem := i % (numDims * 2)
			d, dir := rem/2, rem%2
			sign := "+"
			if dir == 1 {
				sign = "-"
			}
			n.names[i] = "PE" + strconv.Itoa(node) + sign + string("xyz"[d])
		}
	}
	return n.names[id]
}

// Route appends the dimension-order route from src to dst (as link ids) to
// n.scratch and returns it. The result is valid until the next Route/Send
// call. Routes are deterministic: X is fully resolved, then Y, then Z; the
// wraparound direction is taken when strictly shorter, the positive
// direction on ties.
func (n *Network) Route(src, dst int) []int32 {
	route := n.scratch[:0]
	cur := [numDims]int{}
	dc := [numDims]int{}
	cur[0], cur[1], cur[2] = n.Coord(src)
	dc[0], dc[1], dc[2] = n.Coord(dst)
	for d := 0; d < numDims; d++ {
		size := n.dims[d]
		fwd := mod(dc[d]-cur[d], size)
		step, dir := 1, 0
		hops := fwd
		if bwd := size - fwd; fwd > 0 && bwd < fwd {
			step, dir = -1, 1
			hops = bwd
		}
		for k := 0; k < hops; k++ {
			node := n.PEAt(cur[0], cur[1], cur[2])
			route = append(route, n.linkID(node, d, dir))
			cur[d] = mod(cur[d]+step, size)
		}
	}
	n.scratch = route
	return route
}

// Send transmits one message of payload words from src to dst, departing
// at cycle depart, booking every link on the route. hotExtra > 0 models a
// fault-injected hotspot at the message's injection link: the link is held
// busy that many extra cycles (and the message itself is stalled by them),
// so later traffic through the same link queues behind the fault. It
// returns the cycle the message's tail arrives at dst and the total cycles
// the message spent queued behind other traffic.
func (n *Network) Send(src, dst int, payload, depart, hotExtra int64) (arrive, wait int64) {
	if src == dst {
		return depart, 0
	}
	route := n.Route(src, dst)
	occBase := n.cfg.HopCost + payload*n.cfg.WordCost
	t := depart
	for k, id := range route {
		occ := occBase
		if k == 0 {
			occ += hotExtra
		}
		l := &n.links[id]
		start := l.book(t, occ)
		w := start - t
		wait += w
		l.busy += occ
		l.msgs++
		l.words += payload
		l.wait += w
		if w > l.maxWait {
			l.maxWait = w
		}
		// Virtual cut-through: the head moves to the next router after one
		// hop time; the payload streams behind it. A hotspot stall holds
		// the head at the injection link.
		t = start + n.cfg.HopCost
		if k == 0 {
			t += hotExtra
		}
	}
	arrive = t + payload*n.cfg.WordCost
	n.msgs++
	n.words += payload
	n.hops += int64(len(route))
	n.hopHist[len(route)]++
	n.waitCycles += wait
	if wait > 0 {
		n.contended++
	}
	if wait > n.maxWait {
		n.maxWait = wait
	}
	return arrive, wait
}

// RoundTrip models a remote read-style transfer: a one-word request from
// src to dst, the home node's fixed RemoteBaseCost, and a replyWords reply
// back. hot injects a hotspot at the home node's reply link (see Send).
// It returns the completion cycle at src and the total queueing wait.
func (n *Network) RoundTrip(src, dst int, replyWords, depart, hot int64) (arrive, wait int64) {
	t1, w1 := n.Send(src, dst, 1, depart, 0)
	t2, w2 := n.Send(dst, src, replyWords, t1+n.cfg.baseCostFor(src, dst), hot)
	return t2, w1 + w2
}

// DropWaitCycles is the congestion-timeout bound for prefetch messages.
func (n *Network) DropWaitCycles() int64 { return n.cfg.DropWaitCycles }

// Reset returns the network to its just-built state: every link schedule
// and all cumulative statistics cleared, no storage released. Engines
// reuse one Network across runs through this.
func (n *Network) Reset() {
	for i := range n.links {
		n.links[i] = linkState{ivals: n.links[i].ivals[:0]}
	}
	n.msgs, n.words, n.hops, n.waitCycles, n.contended, n.maxWait = 0, 0, 0, 0, 0, 0
	for i := range n.hopHist {
		n.hopHist[i] = 0
	}
}

// EndEpoch clears every link's reservation schedule: epoch boundaries are
// barriers, and the network drains before the next epoch starts.
// Cumulative statistics survive.
func (n *Network) EndEpoch() {
	for i := range n.links {
		if len(n.links[i].ivals) > 0 {
			n.links[i].ivals = n.links[i].ivals[:0]
		}
	}
}

// probe computes the first-fit placement of occ cycles at or after cycle
// at without reserving it: the start time and the index at which the
// interval would be inserted. The placement depends only on the UNION of
// the booked busy intervals in the scanned range (the list keeps intervals
// disjoint, merging only touching neighbors), which is what makes
// placements independent of the order equivalent schedules were built in.
func (l *linkState) probe(at, occ int64) (s int64, i int) {
	ivs := l.ivals
	// Skip intervals that end at or before the requested time, then slide
	// the start past every overlapping busy interval.
	i = sort.Search(len(ivs), func(i int) bool { return ivs[i].hi > at })
	s = at
	for i < len(ivs) && ivs[i].lo < s+occ {
		if ivs[i].hi > s {
			s = ivs[i].hi
		}
		i++
	}
	return s, i
}

// book reserves occ cycles on the link, first-fit into the schedule's idle
// gaps at or after cycle at, and returns the reserved start time.
func (l *linkState) book(at, occ int64) int64 {
	s, i := l.probe(at, occ)
	ivs := l.ivals
	lo, hi := s, s+occ
	// Merge with touching neighbors to keep the schedule compact.
	mergeL := i > 0 && ivs[i-1].hi == lo
	mergeR := i < len(ivs) && ivs[i].lo == hi
	switch {
	case mergeL && mergeR:
		ivs[i-1].hi = ivs[i].hi
		l.ivals = append(ivs[:i], ivs[i+1:]...)
	case mergeL:
		ivs[i-1].hi = hi
	case mergeR:
		ivs[i].lo = lo
	default:
		ivs = append(ivs, ival{})
		copy(ivs[i+1:], ivs[i:])
		ivs[i] = ival{lo, hi}
		l.ivals = ivs
	}
	return s
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}
