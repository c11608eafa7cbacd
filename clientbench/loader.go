package main

// The benchmark's open-loop load generator (the loader). Arrivals come from
// loadgen.Schedule (seeded Poisson, assigned to logical sessions);
// sessions are multiplexed over at most nproc client connections. Each
// transaction's latency runs from its *scheduled* send time to its
// first certified reply, so a stall in the cluster — or in the loader
// itself — is charged to every transaction that was due during it.
// Refused, timed-out and never-answered transactions count as missing
// every latency limit.

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"achilles/internal/loadgen"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// txRecord is one offered transaction's outcome.
type txRecord struct {
	due  time.Duration // scheduled send time (loader clock)
	done time.Duration // first certified reply; 0 while pending
	// outcome: 0 pending, 1 certified, 2 refused by every replica,
	// 3 timed out.
	outcome uint8
	rejMask uint64
}

const (
	txPending = iota
	txCertified
	txRefused
	txTimedOut
)

// accounting is the conservation tally the correctness check uses.
type accounting struct {
	offered, committed, failed, outstanding uint64
}

// clientConn is one pooled connection with its own client identity.
type clientConn struct {
	d   *loader
	id  types.NodeID
	rt  *transport.Runtime
	seq uint32 // guarded by d.mu
	// recs maps this connection's sequence numbers to record indices.
	recs map[uint32]int // guarded by d.mu
}

// loader offers an open-loop workload and records every outcome.
type loader struct {
	peers   map[types.NodeID]string
	conns   []*clientConn
	payload [][]byte
	start   time.Time
	timeout time.Duration

	anyReply atomic.Bool // a certified reply has arrived

	mu         sync.Mutex
	lastExpire time.Duration
	recs       []txRecord
	certified  map[types.TxKey]struct{}
	// replies is every certified reply's arrival time (loader clock),
	// for the stall metric.
	replies []time.Duration
	// lag is each dispatch batch's lateness behind its oldest due tx.
	lag []time.Duration
	// maxHeight is the highest block height a certified reply named.
	maxHeight uint64
}

// newLoader connects conns client connections to the cluster. The
// payloads are drawn from seed.
func newLoader(peers map[types.NodeID]string, conns, size int, seed int64, timeout time.Duration) (*loader, error) {
	d := &loader{
		peers:     peers,
		timeout:   timeout,
		certified: make(map[types.TxKey]struct{}),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < 16; i++ {
		p := make([]byte, size)
		rng.Read(p)
		d.payload = append(d.payload, p)
	}
	d.start = time.Now()
	for i := 0; i < conns; i++ {
		c := &clientConn{
			d:    d,
			id:   types.ClientIDBase + 1<<16 + types.NodeID(i),
			recs: make(map[uint32]int),
		}
		c.rt = transport.New(transport.Config{Self: c.id, Peers: peers}, c)
		if err := c.rt.Start(); err != nil {
			d.stop()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

func (d *loader) now() time.Duration { return time.Since(d.start) }

// Init implements protocol.Replica (the connection is driven directly).
func (c *clientConn) Init(protocol.Env) {}

// OnTimer implements protocol.Replica.
func (c *clientConn) OnTimer(types.TimerID) {}

// OnMessage implements protocol.Replica: the first certified reply
// retires a transaction; a refusal from every replica fails it.
func (c *clientConn) OnMessage(from types.NodeID, msg types.Message) {
	d := c.d
	switch m := msg.(type) {
	case *types.ClientReply:
		if !m.Certified {
			return
		}
		now := d.now()
		d.mu.Lock()
		hit := false
		for _, k := range m.TxKeys {
			if k.Client != c.id {
				continue
			}
			idx, ok := c.recs[k.Seq]
			if !ok {
				continue
			}
			delete(c.recs, k.Seq)
			r := &d.recs[idx]
			r.done, r.outcome = now, txCertified
			d.certified[k] = struct{}{}
			hit = true
		}
		if hit {
			d.replies = append(d.replies, now)
			d.anyReply.Store(true)
			if uint64(m.Height) > d.maxHeight {
				d.maxHeight = uint64(m.Height)
			}
		}
		d.mu.Unlock()
	case *types.ClientRetry:
		bit := uint64(1) << (uint64(from) & 63)
		d.mu.Lock()
		for _, k := range m.TxKeys {
			if k.Client != c.id {
				continue
			}
			idx, ok := c.recs[k.Seq]
			if !ok {
				continue
			}
			r := &d.recs[idx]
			r.rejMask |= bit
			if bits.OnesCount64(r.rejMask) >= len(d.peers) {
				delete(c.recs, k.Seq)
				r.outcome = txRefused
			}
		}
		d.mu.Unlock()
	}
}

var _ protocol.Replica = (*clientConn)(nil)

// offer runs an open-loop phase: arrivals of sched (offset by base on
// the loader clock) are sent until the loader clock reaches end or
// done (when set) reports true. tick bounds dispatch batching.
func (d *loader) offer(sched *loadgen.Schedule, base, end, tick time.Duration, done func() bool) {
	var due []loadgen.Arrival
	batches := make([][]int, len(d.conns))
	for {
		now := d.now()
		horizon := now
		if horizon > end {
			horizon = end
		}
		due = sched.TakeUntil(due[:0], types.Time(horizon-base))
		if len(due) > 0 {
			d.mu.Lock()
			d.lag = append(d.lag, now-(base+time.Duration(due[0].At)))
			for _, a := range due {
				d.recs = append(d.recs, txRecord{due: base + time.Duration(a.At)})
				ci := a.Session % len(d.conns)
				batches[ci] = append(batches[ci], len(d.recs)-1)
			}
			d.mu.Unlock()
			for ci, idxs := range batches {
				if len(idxs) > 0 {
					d.submit(d.conns[ci], idxs)
					batches[ci] = batches[ci][:0]
				}
			}
		}
		if now >= end || (done != nil && done()) {
			return
		}
		d.expire(now)
		sleep := tick
		if rest := end - d.now(); rest < sleep {
			sleep = rest
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
}

// submit sends one ClientRequest carrying the given records' txs to
// every replica.
func (d *loader) submit(c *clientConn, idxs []int) {
	txs := make([]types.Transaction, len(idxs))
	d.mu.Lock()
	for i, idx := range idxs {
		c.seq++
		c.recs[c.seq] = idx
		txs[i] = types.Transaction{
			Client:  c.id,
			Seq:     c.seq,
			Payload: d.payload[int(c.seq)%len(d.payload)],
			Created: types.Time(d.recs[idx].due),
		}
	}
	d.mu.Unlock()
	c.rt.Broadcast(&types.ClientRequest{Txs: txs})
}

// expire fails transactions unanswered for longer than the timeout.
// It scans at most every 100 ms.
func (d *loader) expire(now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if now-d.lastExpire < 100*time.Millisecond {
		return
	}
	d.lastExpire = now
	for _, c := range d.conns {
		for seq, idx := range c.recs {
			r := &d.recs[idx]
			if now-r.due >= d.timeout {
				delete(c.recs, seq)
				r.outcome = txTimedOut
			}
		}
	}
}

// outstanding counts transactions still awaiting an outcome.
func (d *loader) outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns {
		n += len(c.recs)
	}
	return n
}

// drain waits until nothing is outstanding or the deadline passes,
// expiring overdue transactions on the way.
func (d *loader) drain(deadline time.Duration) {
	for d.outstanding() > 0 && d.now() < deadline {
		d.expire(d.now())
		time.Sleep(5 * time.Millisecond)
	}
}

// replyHeight returns the highest height a certified reply named.
func (d *loader) replyHeight() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxHeight
}

// snapshot copies the records and reply times out for analysis.
func (d *loader) snapshot() ([]txRecord, []time.Duration, []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := append([]txRecord(nil), d.recs...)
	replies := append([]time.Duration(nil), d.replies...)
	lag := append([]time.Duration(nil), d.lag...)
	return recs, replies, lag
}

// account tallies offered = committed + failed + outstanding.
func (d *loader) account() accounting {
	d.mu.Lock()
	defer d.mu.Unlock()
	var a accounting
	for i := range d.recs {
		a.offered++
		switch d.recs[i].outcome {
		case txCertified:
			a.committed++
		case txRefused, txTimedOut:
			a.failed++
		default:
			a.outstanding++
		}
	}
	return a
}

func (d *loader) stop() {
	for _, c := range d.conns {
		c.rt.Stop()
	}
}

// window selects the records due in [from, to).
func window(recs []txRecord, from, to time.Duration) []txRecord {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].due >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].due >= to })
	return recs[lo:hi]
}

// latencies returns the window's latencies, sorted; failed and
// unanswered transactions are +Inf (they miss every limit).
func latencies(recs []txRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.outcome == txCertified {
			out[i] = float64(r.done-r.due) / float64(time.Millisecond)
		} else {
			out[i] = inf
		}
	}
	sort.Float64s(out)
	return out
}
