package core_test

import (
	"testing"
	"time"

	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/protocol"
	"achilles/internal/protocol/protocoltest"
	"achilles/internal/types"
)

// miniNet drives n Achilles replicas through recording envs and
// shuttles their messages synchronously — a deterministic white-box
// harness for replica logic.
type miniNet struct {
	t    *testing.T
	n    int
	reps map[types.NodeID]*core.Replica
	envs map[types.NodeID]*protocoltest.Env
	// drop filters messages; return true to drop.
	drop func(from, to types.NodeID, msg types.Message) bool
	// clientMsgs captures messages addressed to clients during flush.
	clientMsgs []protocoltest.Sent
}

func newMiniNet(t *testing.T, n, f int, synthetic bool) *miniNet {
	return newMiniNetDepth(t, n, f, synthetic, 0)
}

func newMiniNetDepth(t *testing.T, n, f int, synthetic bool, depth int) *miniNet {
	return newMiniNetWith(t, n, f, synthetic, depth, nil)
}

// newMiniNetWith is newMiniNetDepth with a hook that may adjust each
// replica's configuration before it is built.
func newMiniNetWith(t *testing.T, n, f int, synthetic bool, depth int, hook func(*core.Config)) *miniNet {
	t.Helper()
	scheme := crypto.FastScheme{}
	ring := crypto.NewKeyRing()
	privs := make(map[types.NodeID]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(3, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[types.NodeID(i)] = p
	}
	m := &miniNet{t: t, n: n, reps: map[types.NodeID]*core.Replica{}, envs: map[types.NodeID]*protocoltest.Env{}}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		cfg := core.Config{
			Config: protocol.Config{
				Self: id, N: n, F: f,
				BatchSize: 8, PayloadSize: 4,
				BaseTimeout: 100 * time.Millisecond, Seed: 3,
			},
			Scheme:            scheme,
			Ring:              ring,
			Priv:              privs[id],
			SyntheticWorkload: synthetic,
			PipelineDepth:     depth,
		}
		if hook != nil {
			hook(&cfg)
		}
		m.reps[id] = core.New(cfg)
		m.envs[id] = &protocoltest.Env{}
	}
	return m
}

func (m *miniNet) start() {
	for i := 0; i < m.n; i++ {
		m.reps[types.NodeID(i)].Init(m.envs[types.NodeID(i)])
	}
	m.flush()
}

// flush delivers queued sends round after round until quiescent or a
// round budget is exhausted (a saturated cluster never quiesces: each
// commit immediately spawns the next view's proposal).
func (m *miniNet) flush() {
	m.t.Helper()
	for round := 0; round < 200; round++ {
		type delivery struct {
			from, to types.NodeID
			msg      types.Message
		}
		var pending []delivery
		for i := 0; i < m.n; i++ {
			id := types.NodeID(i)
			env := m.envs[id]
			for _, s := range env.Sends {
				if s.Broadcast {
					for j := 0; j < m.n; j++ {
						if to := types.NodeID(j); to != id {
							pending = append(pending, delivery{id, to, s.Msg})
						}
					}
				} else if s.To.IsClient() {
					m.clientMsgs = append(m.clientMsgs, s)
				} else {
					pending = append(pending, delivery{id, s.To, s.Msg})
				}
			}
			env.Sends = nil
		}
		if len(pending) == 0 {
			return
		}
		for _, d := range pending {
			if m.drop != nil && m.drop(d.from, d.to, d.msg) {
				continue
			}
			m.reps[d.to].OnMessage(d.from, d.msg)
		}
	}
}

func (m *miniNet) commitsAt(id types.NodeID) []*types.Block {
	var out []*types.Block
	for _, c := range m.envs[id].Commits {
		out = append(out, c.Block)
	}
	return out
}

func TestReplicaBootstrapCommitsChain(t *testing.T) {
	m := newMiniNet(t, 3, 1, true)
	m.start()
	// With a synchronous network and synthetic load, the cluster runs
	// ahead until the flush bound; all nodes must have committed the
	// same non-trivial chain prefix.
	c0 := m.commitsAt(0)
	if len(c0) == 0 {
		t.Fatal("no commits")
	}
	for i := 1; i < 3; i++ {
		ci := m.commitsAt(types.NodeID(i))
		min := len(c0)
		if len(ci) < min {
			min = len(ci)
		}
		if min == 0 {
			t.Fatalf("node %d committed nothing", i)
		}
		for k := 0; k < min; k++ {
			if c0[k].Hash() != ci[k].Hash() {
				t.Fatalf("divergent commit at %d between 0 and %d", k, i)
			}
		}
	}
	// Heights are consecutive from 1.
	for k, b := range c0 {
		if b.Height != types.Height(k+1) {
			t.Fatalf("commit %d has height %d", k, b.Height)
		}
	}
}

func TestReplicaIgnoresForgedProposal(t *testing.T) {
	m := newMiniNet(t, 3, 1, false)
	m.start()
	victim := m.reps[0]
	env := m.envs[0]
	before := len(env.Sends)
	// A proposal whose block certificate is signed by a non-leader is
	// dropped without a vote.
	b := &types.Block{Parent: types.HashBytes([]byte("junk")), View: victim.View(), Height: 1, Proposer: 2}
	bc := &types.BlockCert{Hash: b.Hash(), View: victim.View(), Signer: 2, Sig: []byte("garbage")}
	victim.OnMessage(2, &core.MsgProposal{Block: b, BC: bc})
	for _, s := range env.Sends[before:] {
		if _, isVote := s.Msg.(*core.MsgVote); isVote {
			t.Fatal("voted for forged proposal")
		}
	}
}

func TestReplicaIgnoresForgedDecide(t *testing.T) {
	m := newMiniNet(t, 3, 1, false)
	m.start()
	victim := m.reps[0]
	env := m.envs[0]
	env.Commits = nil
	cc := &types.CommitCert{
		Hash: types.HashBytes([]byte("evil")), View: victim.View(),
		Signers: []types.NodeID{0, 1}, Sigs: []types.Signature{[]byte("x"), []byte("y")},
	}
	victim.OnMessage(1, &core.MsgDecide{CC: cc})
	if len(env.Commits) != 0 {
		t.Fatal("committed on forged decide")
	}
}

func TestReplicaTimeoutAdvancesView(t *testing.T) {
	m := newMiniNet(t, 3, 1, false) // idle: no synthetic load
	m.start()
	r := m.reps[0]
	env := m.envs[0]
	v := r.View()
	if len(env.Timers) == 0 {
		t.Fatal("no view timer armed")
	}
	last := env.Timers[len(env.Timers)-1]
	env.Reset()
	// Fire the timer at its deadline, as the runtime would: firings
	// before the armed deadline are treated as stale re-arms and
	// ignored.
	if d := last.At - env.Now(); d > 0 {
		env.Advance(d)
	}
	r.OnTimer(last.ID)
	if r.View() != v+1 {
		t.Fatalf("view after timeout = %d, want %d", r.View(), v+1)
	}
	// A NEW-VIEW certificate goes to the new leader.
	var sawNV bool
	for _, s := range env.Sends {
		if nv, ok := s.Msg.(*core.MsgNewView); ok && nv.VC != nil && nv.VC.CurView == v+1 {
			sawNV = true
		}
	}
	// The new leader may be this node itself, in which case the
	// message was self-delivered instead of sent.
	if !sawNV && types.LeaderForView(v+1, 3) != 0 {
		t.Fatal("no NEW-VIEW sent after timeout")
	}
	// Stale timer firings for old views are ignored.
	env.Reset()
	r.OnTimer(last.ID)
	if r.View() != v+1 {
		t.Fatal("stale timer advanced the view")
	}
}

func TestReplicaClientFlow(t *testing.T) {
	m := newMiniNet(t, 3, 1, false)
	m.start()
	client := types.ClientIDBase + 1
	tx := types.Transaction{Client: client, Seq: 1, Payload: []byte("cmd")}
	// Submit to every node (standard BFT client).
	for i := 0; i < 3; i++ {
		m.reps[types.NodeID(i)].OnMessage(client, &types.ClientRequest{Txs: []types.Transaction{tx}})
	}
	m.flush()
	// Some node committed a block containing the tx and replied.
	found := false
	for _, s := range m.clientMsgs {
		if rep, ok := s.Msg.(*types.ClientReply); ok && s.To == client {
			if !rep.Certified {
				t.Fatal("achilles replies must be certified")
			}
			for _, k := range rep.TxKeys {
				if k == tx.Key() {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("client never got a certified reply")
	}
}

func TestReplicaBlockSyncOnMissedProposal(t *testing.T) {
	m := newMiniNet(t, 3, 1, true)
	// Drop all proposals to node 2: it must catch up via block sync
	// when the DECIDEs arrive.
	m.drop = func(from, to types.NodeID, msg types.Message) bool {
		_, isProp := msg.(*core.MsgProposal)
		return isProp && to == 2
	}
	m.start()
	c2 := m.commitsAt(2)
	if len(c2) == 0 {
		t.Fatal("node 2 never committed despite block sync")
	}
	c0 := m.commitsAt(0)
	for k := range c2 {
		if k < len(c0) && c2[k].Hash() != c0[k].Hash() {
			t.Fatalf("sync produced divergent chain at %d", k)
		}
	}
}

func TestReplicaLedgerAccessors(t *testing.T) {
	m := newMiniNet(t, 3, 1, true)
	m.start()
	r := m.reps[1]
	if r.Ledger() == nil || r.Checker() == nil || r.Enclave() == nil {
		t.Fatal("accessors returned nil")
	}
	if r.Recovering() {
		t.Fatal("fresh replica should not be recovering")
	}
	if r.Ledger().CommittedHeight() == 0 {
		t.Fatal("ledger saw no commits")
	}
}

// TestReconfigForwardedToLeaderUnderPipelining pins the operator-CLI
// submission path: a reconfig command arriving as an ordinary
// ClientRequest at a single replica must still commit when that
// replica never leads. Under stable-view pipelining a healthy cluster
// keeps one leader for as long as it commits, so "wait in this node's
// pool until it leads" — sufficient under per-height rotation — would
// starve the command forever; the handler forwards it to the peers
// instead (forwardReconfigTxs).
func TestReconfigForwardedToLeaderUnderPipelining(t *testing.T) {
	m := newMiniNetDepth(t, 3, 1, true, 4)
	m.start()

	// Aim the submission at a replica that does not lead the current
	// view; with commits flowing the leader keeps its seat, so without
	// forwarding the command could never be proposed.
	r0 := m.reps[0]
	leader := r0.Membership().Leader(r0.View())
	target := types.NodeID((int(leader) + 1) % 3)

	scheme := crypto.FastScheme{}
	signer := types.NodeID(0)
	signerPriv, _ := scheme.KeyPair(3, signer)
	rotated := types.NodeID(1)
	rotPriv, rotPub := crypto.RotationKeyPair(scheme, 3, 1, rotated)
	key := scheme.MarshalPublic(rotPub)
	rc := &types.Reconfig{Op: types.ReconfigRotate, Node: rotated, Key: key, Signer: signer}
	rc.Sig = scheme.Sign(signerPriv, types.ReconfigPayload(rc.Op, rc.Node, rc.Key, rc.Addr))
	// The rotated member needs its new private key staged to keep
	// signing once the epoch activates (the cluster must stay live
	// long enough for every replica to reach the activation height).
	m.reps[rotated].StageRotationKey(1, rotPriv, key)

	payload := rc.EncodeTx()
	h := types.HashBytes(payload)
	tx := types.Transaction{
		Client:  rc.Signer,
		Seq:     uint32(h[0])<<8 | uint32(h[1]),
		Payload: payload,
	}
	m.reps[target].OnMessage(types.ClientIDBase, &types.ClientRequest{Txs: []types.Transaction{tx}})
	for i := 0; i < 20 && m.reps[0].Membership().Epoch != 1; i++ {
		m.flush()
	}
	for i := 0; i < m.n; i++ {
		id := types.NodeID(i)
		if got := m.reps[id].Membership().Epoch; got != 1 {
			t.Fatalf("node %d: epoch = %d, want 1 (reconfig submitted to non-leader %d starved)",
				id, got, target)
		}
	}
}
