package main

// The traced run's layer wrappers. Each wraps an interface the
// replica's configuration already accepts (crypto.Scheme,
// sched.Scheduler, tee.SealedStore, the transport's Dial and
// WrapAccepted hooks) and times the layer from outside through its
// public methods; no program code changes. A wrapper forwards the
// optional interfaces of what it wraps (crypto.BatchVerifier,
// sched.HeightSequencer) so the traced run takes the same code paths as
// the untraced one — the replica type-asserts for both.
//
// Counters accumulate only while the measurement window is open.

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/sched"
	"achilles/internal/tee"
	"achilles/internal/types"
)

// opStat counts calls and their total duration.
type opStat struct {
	n, ns atomic.Uint64
}

func (o *opStat) add(d time.Duration) {
	o.n.Add(1)
	o.ns.Add(uint64(d))
}

// meanUS is the mean call duration in microseconds.
func (o *opStat) meanUS() float64 {
	n := o.n.Load()
	if n == 0 {
		return 0
	}
	return float64(o.ns.Load()) / float64(n) / 1e3
}

// samples is a bounded, window-gated list of durations.
type samples struct {
	mu sync.Mutex
	xs []float64 // milliseconds
}

const maxSamples = 1 << 20

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	if len(s.xs) < maxSamples {
		s.xs = append(s.xs, float64(d)/float64(time.Millisecond))
	}
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.xs...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// byteCount counts traffic through wrapped connections.
type byteCount struct {
	written, read, writes atomic.Uint64
}

// clusterTrace aggregates the layer measurements of every replica.
type clusterTrace struct {
	on atomic.Bool // measurement window open

	sign, verify, batch opStat
	sealPut             opStat
	step, execute       opStat
	egress              opStat
	ingressWait         samples
	mempoolWait         samples
	peerOut             byteCount // replica-to-replica (dialed) connections
	accepted            byteCount // connections replicas accepted (peers and clients)

	mu      sync.Mutex
	commits []time.Duration // node 0 commit times (loader clock)
	blocks  uint64          // node 0 blocks committed in the window
	empty   uint64          // ... of which carried no client transaction
	txs     uint64          // client transactions in them
	// sampleReq / sampleProp are recent frames of the workload's shape,
	// for the codec round-trip measurement.
	sampleReq  *types.ClientRequest
	sampleProp *core.MsgProposal
	depthMax   float64
	clock      func() time.Duration // the loader's; set before the window opens
	win        *windowState
	elapsed    time.Duration // length of the closed window
}

func newClusterTrace() *clusterTrace { return &clusterTrace{} }

// nodeTrace is one replica incarnation's view of the trace.
type nodeTrace struct {
	c       *clusterTrace
	restore time.Duration // OpenDurable duration of this incarnation
	deliver func(lane sched.Lane, step func())
}

func (t *clusterTrace) node() *nodeTrace { return &nodeTrace{c: t} }

// onCommit is node id's commit hook.
func (t *clusterTrace) onCommit(id types.NodeID, b *types.Block) {
	if id != 0 || !t.on.Load() {
		return
	}
	now := t.clock()
	client := 0
	for i := range b.Txs {
		if b.Txs[i].Client.IsClient() {
			client++
		}
	}
	t.mu.Lock()
	t.commits = append(t.commits, now)
	t.blocks++
	t.txs += uint64(client)
	if client == 0 {
		t.empty++
	}
	t.mu.Unlock()
}

// --- crypto.Scheme ----------------------------------------------------

type tracedScheme struct {
	crypto.Scheme
	t *clusterTrace
}

func (s tracedScheme) Sign(priv crypto.PrivateKey, msg []byte) types.Signature {
	if !s.t.on.Load() {
		return s.Scheme.Sign(priv, msg)
	}
	t0 := time.Now()
	sig := s.Scheme.Sign(priv, msg)
	s.t.sign.add(time.Since(t0))
	return sig
}

func (s tracedScheme) Verify(pub crypto.PublicKey, msg []byte, sig types.Signature) bool {
	if !s.t.on.Load() {
		return s.Scheme.Verify(pub, msg, sig)
	}
	t0 := time.Now()
	ok := s.Scheme.Verify(pub, msg, sig)
	s.t.verify.add(time.Since(t0))
	return ok
}

// tracedBatchScheme is tracedScheme over a scheme that batch-verifies.
type tracedBatchScheme struct {
	tracedScheme
	bv crypto.BatchVerifier
}

func (s tracedBatchScheme) VerifyBatch(pubs []crypto.PublicKey, msg []byte, sigs []types.Signature) bool {
	if !s.t.on.Load() {
		return s.bv.VerifyBatch(pubs, msg, sigs)
	}
	t0 := time.Now()
	ok := s.bv.VerifyBatch(pubs, msg, sigs)
	s.t.batch.add(time.Since(t0))
	return ok
}

// scheme wraps inner, keeping its BatchVerifier if it has one.
func (t *clusterTrace) scheme(inner crypto.Scheme) crypto.Scheme {
	ts := tracedScheme{Scheme: inner, t: t}
	if bv, ok := inner.(crypto.BatchVerifier); ok {
		return tracedBatchScheme{tracedScheme: ts, bv: bv}
	}
	return ts
}

// --- sched.Scheduler --------------------------------------------------

type tracedSched struct {
	inner sched.Scheduler
	n     *nodeTrace
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Bind(deliver func(lane sched.Lane, step func())) {
	s.n.deliver = deliver
	s.inner.Bind(deliver)
}

// Ingress times the wait from ingress to the consensus step's start
// and the step itself, and keeps recent workload-shaped frames.
func (s *tracedSched) Ingress(from types.NodeID, msg types.Message, ctx types.TraceContext, step func()) {
	t := s.n.c
	if !t.on.Load() {
		s.inner.Ingress(from, msg, ctx, step)
		return
	}
	switch m := msg.(type) {
	case *types.ClientRequest:
		t.mu.Lock()
		t.sampleReq = m
		t.mu.Unlock()
	case *core.MsgProposal:
		if m.Block != nil && len(m.Block.Txs) > 0 {
			t.mu.Lock()
			t.sampleProp = m
			t.mu.Unlock()
		}
	}
	at := time.Now()
	s.inner.Ingress(from, msg, ctx, func() {
		start := time.Now()
		t.ingressWait.add(start.Sub(at))
		step()
		t.step.add(time.Since(start))
	})
}

func (s *tracedSched) Execute(fn func()) { s.inner.Execute(s.timed(&s.n.c.execute, fn)) }

func (s *tracedSched) Egress(fn func()) { s.inner.Egress(s.timed(&s.n.c.egress, fn)) }

func (s *tracedSched) Stop() { s.inner.Stop() }

func (s *tracedSched) timed(o *opStat, fn func()) func() {
	t := s.n.c
	return func() {
		if !t.on.Load() {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		o.add(time.Since(t0))
	}
}

// tracedSeqSched is tracedSched over a height-sequencing scheduler.
type tracedSeqSched struct {
	*tracedSched
	hs sched.HeightSequencer
}

func (s tracedSeqSched) ExecuteAt(h types.Height, fn func()) {
	s.hs.ExecuteAt(h, s.timed(&s.n.c.execute, fn))
}

// sched wraps inner, keeping its HeightSequencer if it has one.
func (n *nodeTrace) sched(inner sched.Scheduler) sched.Scheduler {
	ts := &tracedSched{inner: inner, n: n}
	if hs, ok := inner.(sched.HeightSequencer); ok {
		return tracedSeqSched{tracedSched: ts, hs: hs}
	}
	return ts
}

// --- tee.SealedStore --------------------------------------------------

type tracedStore struct {
	tee.SealedStore
	t *clusterTrace
}

func (s tracedStore) Put(name string, sealed []byte) {
	if !s.t.on.Load() {
		s.SealedStore.Put(name, sealed)
		return
	}
	t0 := time.Now()
	s.SealedStore.Put(name, sealed)
	s.t.sealPut.add(time.Since(t0))
}

func (n *nodeTrace) sealed(inner tee.SealedStore) tee.SealedStore {
	return tracedStore{SealedStore: inner, t: n.c}
}

// --- net.Conn ---------------------------------------------------------

type countedConn struct {
	net.Conn
	t *clusterTrace
	b *byteCount
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.b.written.Add(uint64(n))
		c.b.writes.Add(1)
	}
	return n, err
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.b.read.Add(uint64(n))
	}
	return n, err
}

// dial wraps a replica's dial function (nil: the transport's default)
// so every peer connection it opens is counted.
func (n *nodeTrace) dial(inner func(string, string) (net.Conn, error)) func(string, string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		var conn net.Conn
		var err error
		if inner != nil {
			conn, err = inner(network, addr)
		} else {
			conn, err = net.DialTimeout(network, addr, 2*time.Second)
		}
		if err != nil {
			return nil, err
		}
		return countedConn{Conn: conn, t: n.c, b: &n.c.peerOut}, nil
	}
}

func (n *nodeTrace) wrapAccepted(conn net.Conn) net.Conn {
	return countedConn{Conn: conn, t: n.c, b: &n.c.accepted}
}

// afterStart installs the mempool queue-wait observer. It runs as a
// consensus step — on the goroutine that owns the queue, after the
// replica's Init (which installs its own span observer).
func (n *nodeTrace) afterStart(nd *node) {
	if n.deliver == nil {
		return
	}
	t := n.c
	pool := nd.pool
	n.deliver(sched.LaneConsensus, func() {
		pool.SetWaitObserver(func(d time.Duration) {
			if t.on.Load() {
				t.mempoolWait.add(d)
			}
		})
	})
}
