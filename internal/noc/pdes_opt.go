// Optimistic (speculative) execution support for the torus: the one
// scheme that lets the PEs of a parallel epoch book link traffic
// concurrently while the results stay those of the canonical PE-major
// booking order. It needs no cross-PE synchronization at all, because it
// splits an epoch into two phases:
//
//  1. Speculation: every PE runs its whole epoch concurrently with ZERO
//     cross-PE synchronization. Each PE books its traffic on a private
//     predictor Network (a topology clone that sees only the PE's own
//     traffic, so it models distance and self-contention but not
//     cross-traffic queueing) and logs every transport call with the
//     result the PE consumed (a SpecOp).
//  2. Validation: a single goroutine replays the logs onto the real
//     Network in canonical PE-major order. As long as every op's real
//     result matches what the PE consumed, the speculative execution WAS
//     the canonical execution (per-PE behavior is a deterministic function
//     of the transport results, see below). The first mismatching op
//     triggers rollback: the engine restores the PE's epoch-entry snapshot
//     and re-executes it serially, serving the already-validated prefix
//     (including the mismatching op's REAL result, which is canonically
//     placed by construction) from the log and booking everything after it
//     directly on the real Network.
//
// Convergence argument. Within an epoch, a PE's address/value streams and
// control flow depend only on (a) its epoch-entry state, which validation
// makes canonical epoch by epoch, and (b) the results of its transport
// calls: the paper's execution model gives parallel epochs disjoint cross-PE
// data, so no other PE's same-epoch writes are observable. By induction over
// a PE's ops: if ops 0..k-1 returned the canonical results, the PE's k-th op
// has the canonical arguments, so booking it on the real Network (in
// PE-major replay order) produces the canonical placement and the canonical
// result. A full match therefore certifies the speculative run byte-for-byte;
// a first mismatch at op k certifies ops 0..k (with op k's real result), and
// re-execution from the snapshot against those certified results converges
// to exactly the canonical sequential execution. Engine-consumed results are
// only the RoundTrip (arrive, wait>drop) pair — Send results are discarded
// by every caller — so validation only rolls back when one of those two
// observables mispredicts.
package noc

// TestCommitYield, when non-nil, is called at every SpecRecorder entry
// point to let tests perturb goroutine scheduling (e.g. with
// runtime.Gosched) and prove the committed schedules are
// interleaving-independent. Set only while no engine runs.
var TestCommitYield func()

// TestSpecSkew, when non-nil, perturbs every speculative RoundTrip
// prediction by its return value (added to the predicted arrival). The
// perturbed value is both returned to the engine and logged, so validation
// sees a guaranteed mismatch and the rollback/re-execution path runs — the
// equivalence property tests use this to prove mis-speculation recovery
// converges to the canonical results. Set only while no engine runs.
var TestSpecSkew func() int64

// SpecOp is one logged transport call of a speculative epoch: the exact
// arguments the PE issued and the result it consumed. During validation the
// result fields are overwritten in place with the real (canonical) results.
type SpecOp struct {
	RT       bool // RoundTrip (engine-visible result) vs Send (discarded)
	From, To int32
	Payload  int64
	Depart   int64
	Hot      int64
	Arrive   int64
	Wait     int64
}

// SpecRecorder is the Transport a PE uses during a speculative epoch: it
// books on the PE's private predictor network and logs every call. Not safe
// for use by more than its own PE.
type SpecRecorder struct {
	pred *Network
	// Ops is the epoch's transport log in issue order.
	Ops []SpecOp
}

// NewSpecRecorder wraps a private predictor network.
func NewSpecRecorder(pred *Network) *SpecRecorder { return &SpecRecorder{pred: pred} }

// BeginEpoch clears the predictor's schedules and the log for a new epoch.
func (r *SpecRecorder) BeginEpoch() {
	r.pred.EndEpoch()
	r.Ops = r.Ops[:0]
}

// Send implements Transport. The result is a prediction; every engine call
// site discards Send results, so mispredicted Sends never force a rollback
// (validation still rebooks them canonically for the link statistics).
func (r *SpecRecorder) Send(src, dst int, payload, depart, hot int64) (arrive, wait int64) {
	if h := TestCommitYield; h != nil {
		h()
	}
	arrive, wait = r.pred.Send(src, dst, payload, depart, hot)
	r.Ops = append(r.Ops, SpecOp{From: int32(src), To: int32(dst),
		Payload: payload, Depart: depart, Hot: hot, Arrive: arrive, Wait: wait})
	return arrive, wait
}

// RoundTrip implements Transport; the prediction models distance, endpoint
// overhead and the PE's self-contention, but not cross-PE queueing.
func (r *SpecRecorder) RoundTrip(src, dst int, replyWords, depart, hot int64) (arrive, wait int64) {
	if h := TestCommitYield; h != nil {
		h()
	}
	arrive, wait = r.pred.RoundTrip(src, dst, replyWords, depart, hot)
	if h := TestSpecSkew; h != nil {
		arrive += h()
	}
	r.Ops = append(r.Ops, SpecOp{RT: true, From: int32(src), To: int32(dst),
		Payload: replyWords, Depart: depart, Hot: hot, Arrive: arrive, Wait: wait})
	return arrive, wait
}

// DropWaitCycles implements Transport.
func (r *SpecRecorder) DropWaitCycles() int64 { return r.pred.cfg.DropWaitCycles }

// ValidateOps replays a speculative log onto the real network in canonical
// order, overwriting each op's result fields with the real results as it
// books. It stops after booking the first op whose engine-visible result
// (RoundTrip arrival, or which side of the drop timeout the wait fell on)
// mispredicted, returning its index; len(ops) means the whole log validated.
// Ops beyond the returned index are NOT booked — the engine's re-execution
// books them in their canonical place.
func (n *Network) ValidateOps(ops []SpecOp) int {
	drop := n.cfg.DropWaitCycles
	for k := range ops {
		op := &ops[k]
		a, w := n.bookOp(op)
		if op.RT && (a != op.Arrive || (w > drop) != (op.Wait > drop)) {
			op.Arrive, op.Wait = a, w
			return k
		}
		op.Arrive, op.Wait = a, w
	}
	return len(ops)
}

// BookOps books a slice of logged ops without validating (the no-rollback
// sabotage path: mispredicted speculative state is deliberately kept, but
// the link schedules still need the traffic for later PEs' placements).
func (n *Network) BookOps(ops []SpecOp) {
	for k := range ops {
		n.bookOp(&ops[k])
	}
}

func (n *Network) bookOp(op *SpecOp) (arrive, wait int64) {
	if op.RT {
		return n.RoundTrip(int(op.From), int(op.To), op.Payload, op.Depart, op.Hot)
	}
	return n.Send(int(op.From), int(op.To), op.Payload, op.Depart, op.Hot)
}

// NewFleet builds count private predictor networks of the same
// configuration, slab-allocating the per-network link, histogram and route
// storage so a 64-PE fleet costs a handful of allocations instead of
// hundreds. Predictors are full Networks — Send/RoundTrip/EndEpoch behave
// identically — they are merely never shared across PEs.
func NewFleet(cfg Config, numPE, count int) ([]*Network, error) {
	if cfg.Kind == KindFlat {
		return nil, nil
	}
	if err := cfg.Validate(numPE); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var dims [numDims]int
	if cfg.X == 0 {
		dims[0], dims[1], dims[2] = AutoDims(numPE)
	} else {
		dims[0], dims[1], dims[2] = cfg.X, cfg.Y, cfg.Z
	}
	maxHops := 0
	for d := 0; d < numDims; d++ {
		maxHops += dims[d] / 2
	}
	nLinks := numPE * numDims * 2
	nets := make([]Network, count)
	linkSlab := make([]linkState, count*nLinks)
	histSlab := make([]int64, count*(maxHops+1))
	routeSlab := make([]int32, count*maxHops)
	out := make([]*Network, count)
	for i := range nets {
		n := &nets[i]
		n.cfg, n.numPE, n.dims = cfg, numPE, dims
		n.links = linkSlab[i*nLinks : (i+1)*nLinks : (i+1)*nLinks]
		n.hopHist = histSlab[i*(maxHops+1) : (i+1)*(maxHops+1) : (i+1)*(maxHops+1)]
		n.scratch = routeSlab[i*maxHops : i*maxHops : (i+1)*maxHops]
		out[i] = n
	}
	return out, nil
}
