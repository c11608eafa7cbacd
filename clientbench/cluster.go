package main

// The benchmarked cluster: three replicas on loopback TCP inside this
// process, each wired the way cmd/achilles-node wires itself from its
// shipped flag defaults (see wiring below; the drift test pins it
// against `achilles-node -h`). The benchmark touches the replicas only
// through public configuration, hooks and the wrappers in traced.go.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/ledger"
	"achilles/internal/mempool"
	"achilles/internal/netchaos"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/sched"
	"achilles/internal/tee"
	"achilles/internal/transport"
	"achilles/internal/types"
	"achilles/internal/wal"
)

// wiring is the node configuration the benchmark pins: achilles-node's
// flag defaults for every flag that shapes the hot path. Flags are
// named as on the command line so the drift test can compare them.
var wiring = map[string]string{
	"sched":             "sync",
	"pipeline-depth":    "1",
	"batch":             "400",
	"fsync":             "batch",
	"snapshot-interval": "512",
	"trace-sample":      "64",
	"timeout":           "500ms",
	"retain-heights":    "1024",
	"mempool-depth":     "0",
	"client-rate":       "0",
	"client-burst":      "0",
	"adaptive-batch":    "false",
	"seed":              "1",
}

// nodeCount is the cluster size; f = 1.
const nodeCount = 3

// keySeed derives the replicas' key pairs (achilles-node's -seed
// default). The workload seed never reaches the program.
var keySeed = int64(wiringInt("seed"))

func wiringInt(name string) int {
	v, err := strconv.Atoi(wiring[name])
	if err != nil {
		panic(fmt.Sprintf("wiring %s: %v", name, err))
	}
	return v
}

func wiringDuration(name string) time.Duration {
	d, err := time.ParseDuration(wiring[name])
	if err != nil {
		panic(fmt.Sprintf("wiring %s: %v", name, err))
	}
	return d
}

var registerOnce sync.Once

func registerMessages() {
	registerOnce.Do(func() {
		transport.RegisterMessages(
			&core.MsgNewView{}, &core.MsgProposal{}, &core.MsgVote{},
			&core.MsgDecide{}, &core.MsgRecoveryReq{}, &core.MsgRecoveryRpy{},
		)
	})
}

// node is one replica incarnation.
type node struct {
	id      types.NodeID
	dir     string
	reg     *obs.Registry
	pool    *mempool.Pool
	rep     *core.Replica
	rt      *transport.Runtime
	durable *ledger.Durable
	tr      *nodeTrace // nil when untraced
	dead    bool       // killed and not yet rebooted
}

// cluster is a running three-replica deployment.
type cluster struct {
	dir    string
	peers  map[types.NodeID]string
	scheme crypto.Scheme
	ring   *crypto.KeyRing
	privs  []crypto.PrivateKey
	chaos  *netchaos.Chaos
	trace  *clusterTrace // nil when untraced
	ledger *ledgerCheck
	// mu guards nodes and their dead flags: the crash schedule kills and
	// reboots a replica while the traced run's poller reads them.
	mu    sync.Mutex
	nodes []*node
}

// freePeers reserves n loopback ports by binding and releasing them.
func freePeers(n int) (map[types.NodeID]string, error) {
	peers := make(map[types.NodeID]string, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		peers[types.NodeID(i)] = ln.Addr().String()
	}
	return peers, nil
}

// startCluster boots the replicas under dir. oneWay > 0 delays every
// replica-to-replica write by that much (netchaos); tr, when set,
// wraps each layer for the traced run.
func startCluster(dir string, oneWay time.Duration, tr *clusterTrace) (*cluster, error) {
	registerMessages()
	peers, err := freePeers(nodeCount)
	if err != nil {
		return nil, err
	}
	var scheme crypto.Scheme = crypto.ECDSAScheme{}
	if tr != nil {
		scheme = tr.scheme(scheme)
	}
	c := &cluster{
		dir:    dir,
		peers:  peers,
		scheme: scheme,
		ring:   crypto.NewKeyRing(),
		privs:  make([]crypto.PrivateKey, nodeCount),
		trace:  tr,
		ledger: newLedgerCheck(),
		nodes:  make([]*node, nodeCount),
	}
	for i := 0; i < nodeCount; i++ {
		p, pub := scheme.KeyPair(keySeed, types.NodeID(i))
		c.ring.Add(types.NodeID(i), pub)
		c.privs[i] = p
	}
	if oneWay > 0 {
		c.chaos = netchaos.New(netchaos.Config{Seed: keySeed, Latency: oneWay})
	}
	for i := 0; i < nodeCount; i++ {
		n, err := c.boot(types.NodeID(i), false)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes[i] = n
	}
	return c, nil
}

// boot starts one replica incarnation from its data directory, the
// way achilles-node does (with -recover when recovering is set).
func (c *cluster) boot(id types.NodeID, recovering bool) (*node, error) {
	n := &node{
		id:  id,
		dir: filepath.Join(c.dir, fmt.Sprintf("node-%d", id)),
		reg: obs.NewRegistry(),
	}
	if c.trace != nil {
		n.tr = c.trace.node()
	}
	pcfg := protocol.Config{
		Self: id, N: nodeCount, F: (nodeCount - 1) / 2,
		BatchSize: wiringInt("batch"), PayloadSize: 256,
		BaseTimeout: wiringDuration("timeout"), Seed: keySeed,
	}
	spans := obs.NewSpanTracer(obs.SpanConfig{
		SampleEvery: wiringInt("trace-sample"),
		Node:        uint64(id),
		Registry:    n.reg,
	})
	tracer := obs.NewTracer(4096)
	n.pool = mempool.New()
	var hot sched.Scheduler = sched.NewSync()

	policy, err := wal.ParsePolicy(wiring["fsync"])
	if err != nil {
		return nil, err
	}
	ds, err := tee.NewDirStore(filepath.Join(n.dir, "sealed"))
	if err != nil {
		return nil, fmt.Errorf("sealed store: %w", err)
	}
	var sealed tee.SealedStore = ds
	if n.tr != nil {
		hot = n.tr.sched(hot)
		sealed = n.tr.sealed(sealed)
	}
	openStart := time.Now()
	n.durable, err = ledger.OpenDurable(ledger.DurableOptions{
		Dir:              n.dir,
		Fsync:            policy,
		SnapshotInterval: types.Height(wiringInt("snapshot-interval")),
		Obs:              n.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("open data directory: %w", err)
	}
	if n.tr != nil {
		n.tr.restore = time.Since(openStart)
	}
	flight, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:      filepath.Join(n.dir, "flight"),
		Node:     fmt.Sprintf("node-%d", id),
		Registry: n.reg,
		Tracer:   tracer,
		Spans:    spans,
		Status: func() any {
			if n.rep == nil {
				return nil
			}
			return n.rep.Status()
		},
	})
	if err != nil {
		n.durable.Abort()
		return nil, fmt.Errorf("flight recorder: %w", err)
	}

	var secret [32]byte
	secret[0] = byte(id)
	priv := c.privs[id]
	n.rep = core.New(core.Config{
		Config:        pcfg,
		Scheme:        c.scheme,
		Ring:          c.ring,
		Priv:          priv,
		MachineSecret: secret,
		SealedStore:   sealed,
		Recovering:    recovering,
		Sched:         hot,
		PipelineDepth: wiringInt("pipeline-depth"),
		Pool:          n.pool,
		RetainHeights: uint64(wiringInt("retain-heights")),
		Durable:       n.durable,
		Obs:           n.reg,
		Trace:         tracer,
		Spans:         spans,
		Flight:        flight,
		KeyByPub: func(pub []byte) crypto.PrivateKey {
			if bytes.Equal(pub, c.scheme.MarshalPublic(c.ring.Get(id))) {
				return priv
			}
			return nil
		},
	})
	tcfg := transport.Config{
		Self:   id,
		Listen: c.peers[id],
		Peers:  c.peers,
		Scheme: c.scheme,
		Ring:   c.ring,
		Priv:   priv,
		Sched:  hot,
		OnCommit: func(b *types.Block, _ *types.CommitCert) {
			c.ledger.record(id, b)
			if c.trace != nil {
				c.trace.onCommit(id, b)
			}
		},
	}
	// WAN profile: delay replica-to-replica writes only. Every peer
	// message travels a dialed connection; client traffic does not.
	if c.chaos != nil {
		tcfg.Dial = c.chaos.Dialer(c.peers[id])
	}
	if n.tr != nil {
		tcfg.Dial = n.tr.dial(tcfg.Dial)
		tcfg.WrapAccepted = n.tr.wrapAccepted
	}
	n.rt = transport.New(tcfg, n.rep)
	if err := n.rt.Start(); err != nil {
		n.durable.Abort()
		return nil, fmt.Errorf("start node %v: %w", id, err)
	}
	if n.tr != nil {
		n.tr.afterStart(n)
	}
	return n, nil
}

// kill crashes a replica: the transport stops, the WAL is abandoned
// without a final flush, and the final record is torn the way a crash
// that loses the unsynced tail leaves it.
func (c *cluster) kill(id types.NodeID, seed int64) error {
	c.mu.Lock()
	n := c.nodes[id]
	n.dead = true
	c.mu.Unlock()
	n.rt.Stop()
	walDir := n.durable.WALDir()
	n.durable.Abort()
	if c.trace != nil {
		c.trace.retire(n)
	}
	if _, err := wal.NewInjector(seed).TearFinalRecord(walDir); err != nil {
		return fmt.Errorf("tear final record: %w", err)
	}
	return nil
}

// reboot restarts a killed replica from its data directory and sealed
// store, in recovery mode.
func (c *cluster) reboot(id types.NodeID) error {
	n, err := c.boot(id, true)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	return nil
}

// stop shuts every replica down and closes its data directory.
func (c *cluster) stop() {
	var wg sync.WaitGroup
	for _, n := range c.liveNodes() {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.rt.Stop()
			if err := n.durable.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "close node %v data directory: %v\n", n.id, err)
			}
		}(n)
	}
	wg.Wait()
}

// liveNodes returns the replicas that are running.
func (c *cluster) liveNodes() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*node
	for _, n := range c.nodes {
		if n != nil && !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// heights returns every replica's committed height.
func (c *cluster) heights() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.rep.Status().Height
	}
	return out
}

// finalHeights reads each replica's committed height after stop, once
// it has settled: Runtime.Stop does not wait for the event loop, which
// may still finish a step — fire the commit hook, then publish the new
// height — after Stop returns. It waits until every height has matched
// the replica's last hooked commit for settleFor, or a second passes.
func (c *cluster) finalHeights() []uint64 {
	const settleFor = 20 * time.Millisecond
	deadline := time.Now().Add(time.Second)
	var since time.Time
	for {
		hs := c.heights()
		switch {
		case !c.ledger.heads(hs):
			since = time.Time{}
		case since.IsZero():
			since = time.Now()
		case time.Since(since) >= settleFor:
			return hs
		}
		if time.Now().After(deadline) {
			return hs
		}
		time.Sleep(time.Millisecond)
	}
}

// node returns replica id's current incarnation.
func (c *cluster) node(id types.NodeID) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}
