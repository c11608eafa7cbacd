package core_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"achilles/internal/core"
	"achilles/internal/ledger"
	"achilles/internal/tee"
	"achilles/internal/types"
	"achilles/internal/wal"
)

// fireViewTimer fires id's newest view-change timer at its deadline,
// as the runtime would.
func (m *miniNet) fireViewTimer(id types.NodeID) {
	m.t.Helper()
	env := m.envs[id]
	for i := len(env.Timers) - 1; i >= 0; i-- {
		tm := env.Timers[i]
		if tm.ID.Kind != types.TimerViewChange {
			continue
		}
		if d := tm.At - env.Now(); d > 0 {
			env.Advance(d)
		}
		m.reps[id].OnTimer(tm.ID)
		return
	}
	m.t.Fatalf("node %d has no view timer armed", id)
}

// TestTxCommitsOnceWhenLeaderExtendsUncommittedParent is the
// duplicate-commit regression: the view-v leader's block B is stored
// by every replica, but its DECIDE (and the commitment certificate
// riding the leader's NEW-VIEW) is lost, so the view-v+1 leader
// re-anchors on B through the accumulator path while B's transactions
// are still pending in its pool. The new block must not carry them
// again — they commit with B — and none may be lost.
func TestTxCommitsOnceWhenLeaderExtendsUncommittedParent(t *testing.T) {
	m := newMiniNet(t, 3, 1, false)
	m.start()
	client := types.ClientIDBase + 7
	var txs []types.Transaction
	for seq := uint32(1); seq <= 5; seq++ {
		txs = append(txs, types.Transaction{Client: client, Seq: seq, Payload: []byte{byte(seq)}})
	}

	v := m.reps[0].View()
	leader := m.reps[0].Membership().Leader(v)
	m.drop = func(_, _ types.NodeID, msg types.Message) bool {
		switch msg := msg.(type) {
		case *core.MsgDecide:
			return true
		case *core.MsgNewView:
			return msg.CC != nil
		}
		return false
	}
	for i := 0; i < m.n; i++ {
		m.reps[types.NodeID(i)].OnMessage(client, &types.ClientRequest{Txs: txs})
	}
	m.flush()
	if got := len(m.commitsAt(leader)); got == 0 {
		t.Fatalf("view-%d leader %d did not commit its own block", v, leader)
	}
	for i := 0; i < m.n; i++ {
		if id := types.NodeID(i); id != leader && len(m.commitsAt(id)) != 0 {
			t.Fatalf("node %d committed although every DECIDE was dropped", id)
		}
	}

	// The backups time out into view v+1; its leader extends B.
	m.drop = nil
	for i := 0; i < m.n; i++ {
		if id := types.NodeID(i); id != leader {
			m.fireViewTimer(id)
		}
	}
	m.flush()

	for i := 0; i < m.n; i++ {
		id := types.NodeID(i)
		seen := map[types.TxKey]int{}
		for _, b := range m.commitsAt(id) {
			for _, tx := range b.Txs {
				seen[tx.Key()]++
			}
		}
		for _, tx := range txs {
			if n := seen[tx.Key()]; n != 1 {
				t.Errorf("node %d: tx %v committed %d times, want exactly once", id, tx.Key(), n)
			}
		}
	}
}

// TestUnreadableDurableMarkerDistrustsLocalState: an authenticated
// sealed durable marker that does not decode (here one in the gob
// format of builds that predate the binary codec) must not read as
// "no marker" — that would switch disk-rollback detection off for the
// boot. The node must discard its local ledger exactly as for a
// detected rollback; an intact marker restores it.
func TestUnreadableDurableMarkerDistrustsLocalState(t *testing.T) {
	dir := t.TempDir()
	store := tee.NewVersionedStore()
	open := func() *ledger.Durable {
		d, err := ledger.OpenDurable(ledger.DurableOptions{Dir: dir, Fsync: wal.PolicyAlways, SnapshotInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	m := newMiniNetWith(t, 3, 1, true, 0, func(c *core.Config) {
		if c.Self == 0 {
			c.Durable, c.SealedStore = d, store
		}
	})
	m.start()
	if h := m.reps[0].Ledger().CommittedHeight(); h < 8 {
		t.Fatalf("node 0 committed only %d heights", h)
	}
	d.Close()

	reboot := func() (*core.Replica, *ledger.Durable) {
		t.Helper()
		d := open()
		mm := newMiniNetWith(t, 3, 1, true, 0, func(c *core.Config) {
			if c.Self == 0 {
				c.Durable, c.SealedStore = d, store
			}
		})
		mm.reps[0].Init(mm.envs[0])
		return mm.reps[0], d
	}
	r, d := reboot()
	if r.Ledger().CommittedHeight() == 0 {
		t.Fatal("intact marker: durable restore adopted nothing")
	}
	d.Close()

	// Replace the marker with authenticated blobs it cannot decode: one
	// in the old gob format, one in no format at all.
	var gobMarker bytes.Buffer
	if err := gob.NewEncoder(&gobMarker).Encode(struct{ Incarnation, WalSeq, Height uint64 }{9, 9, 4}); err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{gobMarker.Bytes(), []byte("not a durable marker")} {
		m.reps[0].Enclave().Seal("achilles-durable-marker", blob)
		r, d := reboot()
		h, recovering := r.Ledger().CommittedHeight(), r.Recovering()
		d.Close()
		if h != 0 {
			t.Fatalf("unreadable marker %q: restored committed height %d, want local state discarded", blob, h)
		}
		if !recovering {
			t.Fatalf("unreadable marker %q: node not forced through recovery", blob)
		}
	}
}
