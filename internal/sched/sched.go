// Package sched coordinates the replica hot path as explicit stages:
//
//	ingress ──▶ consensus step ──▶ execute
//	                           └─▶ egress (client replies)
//
// Sync is the one implementation: every stage runs inline on the
// caller's goroutine, in program order — bit-exact with the historical
// single-threaded replica. The simulator, the fuzzer, the harness and
// the live node all run it, so the golden ledger hashes cover live
// behaviour too. The stages stay named behind the Scheduler interface
// because the live runtime binds the consensus stage to its event loop
// (with a separate lane for client submissions), and because a traced
// wrapper can meter each stage without touching the replica. All state
// mutation — CHECKER calls, ledger writes, mempool admission,
// pacemaker — stays on the consensus goroutine (see DESIGN.md,
// "Concurrency model").
package sched

import (
	"achilles/internal/types"
)

// Lane classifies a delivered consensus step by traffic class, so the
// runtime that owns the consensus loop can prioritize protocol progress
// over bulk client submissions when both queues are hot (overload must
// degrade client admission, never consensus liveness or recovery).
type Lane uint8

const (
	// LaneConsensus carries protocol traffic: proposals, votes,
	// decides, view changes, recovery, block sync, timers.
	LaneConsensus Lane = iota
	// LaneClient carries client transaction submissions.
	LaneClient
)

// LaneFor returns the delivery lane for an inbound message. Everything
// except client submissions is consensus-critical.
func LaneFor(msg types.Message) Lane {
	if _, ok := msg.(*types.ClientRequest); ok {
		return LaneClient
	}
	return LaneConsensus
}

// Scheduler coordinates the staged replica hot path.
type Scheduler interface {
	// Name identifies the implementation ("sync").
	Name() string
	// Bind installs the consensus-stage sink: deliver enqueues a step
	// function onto the single-threaded consensus loop, tagged with the
	// traffic lane the step belongs to. The runtime that owns the loop
	// calls Bind exactly once before traffic flows.
	Bind(deliver func(lane Lane, step func()))
	// Ingress accepts one decoded inbound message and hands step to the
	// bound deliver; it must never drop step while the scheduler is
	// running. ctx is the frame's causal-tracing context (zero when
	// untraced), for implementations that meter the ingress stage.
	Ingress(from types.NodeID, msg types.Message, ctx types.TraceContext, step func())
	// Execute schedules post-commit work (commit observers, state
	// machine side effects) in submission order.
	Execute(fn func())
	// Egress schedules reply traffic in submission order. Egress work
	// is best-effort: replies are never allowed to stall consensus.
	Egress(fn func())
	// Stop tears the scheduler down. Work submitted after Stop may be
	// dropped; Stop itself must not block on in-flight submissions.
	Stop()
}

// HeightSequencer is implemented by schedulers that accept post-commit
// work tagged with the chain height it belongs to. With chained
// pipelining several heights commit in quick succession, and the
// execute lane's correctness depends on applying them in height order;
// a height-tagged submission lets a scheduler (or a wrapper that meters
// it) observe that ordering instead of trusting submission order
// blindly. Heights are monotone but not dense — snapshot catch-up jumps
// the committed height forward — so implementations must only check
// monotonicity, never buffer for gap-filling.
type HeightSequencer interface {
	// ExecuteAt schedules fn like Scheduler.Execute, recording that it
	// applies commit height h. h = 0 means "not height-attributable"
	// and is exempt from ordering checks.
	ExecuteAt(h types.Height, fn func())
}

// Sync is the inline scheduler: every stage runs immediately on the
// calling goroutine, preserving the exact call order of the
// pre-pipeline replica, which keeps it bit-for-bit deterministic under
// the simulator. It is the default wherever no scheduler is configured.
type Sync struct {
	deliver func(lane Lane, step func())
}

// NewSync returns an inline scheduler.
func NewSync() *Sync { return &Sync{} }

// Name implements Scheduler.
func (s *Sync) Name() string { return "sync" }

// Bind implements Scheduler.
func (s *Sync) Bind(deliver func(lane Lane, step func())) { s.deliver = deliver }

// Ingress implements Scheduler: the step goes straight to the
// consensus loop (the consensus handlers do all checking inline,
// charging the meter as always).
func (s *Sync) Ingress(_ types.NodeID, msg types.Message, _ types.TraceContext, step func()) {
	if s.deliver != nil {
		s.deliver(LaneFor(msg), step)
		return
	}
	step()
}

// Execute implements Scheduler (inline).
func (s *Sync) Execute(fn func()) { fn() }

// ExecuteAt implements HeightSequencer (inline: submission order IS
// height order on the single consensus goroutine).
func (s *Sync) ExecuteAt(_ types.Height, fn func()) { fn() }

// Egress implements Scheduler (inline).
func (s *Sync) Egress(fn func()) { fn() }

// Stop implements Scheduler.
func (s *Sync) Stop() {}

var (
	_ Scheduler       = (*Sync)(nil)
	_ HeightSequencer = (*Sync)(nil)
)
