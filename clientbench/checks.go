package main

// Output correctness checks. A violation fails the run (nonzero exit,
// no result line): a benchmark number from a cluster that disagreed
// with itself or lost a certified transaction measures nothing.

import (
	"fmt"
	"sync"

	"achilles/internal/types"
)

// ledgerCheck records every commit every replica incarnation reports
// through its commit hook.
type ledgerCheck struct {
	mu       sync.Mutex
	byHeight map[types.Height]types.Hash
	// node0 counts, per client transaction, how often node 0 committed it.
	node0    map[types.TxKey]int
	node0Txs uint64
	// last is each replica's most recently committed block.
	last     map[types.NodeID]*types.Block
	failures []string
}

func newLedgerCheck() *ledgerCheck {
	return &ledgerCheck{
		byHeight: make(map[types.Height]types.Hash),
		node0:    make(map[types.TxKey]int),
		last:     make(map[types.NodeID]*types.Block),
	}
}

// record is the commit hook of replica id.
func (l *ledgerCheck) record(id types.NodeID, b *types.Block) {
	h := b.Hash()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.byHeight[b.Height]; ok && prev != h {
		if len(l.failures) < 8 {
			l.failures = append(l.failures, fmt.Sprintf("node %v committed a different block at height %d", id, b.Height))
		}
	} else if !ok {
		l.byHeight[b.Height] = h
	}
	if prev := l.last[id]; prev == nil || b.Height > prev.Height {
		l.last[id] = b
	}
	if id == 0 {
		for i := range b.Txs {
			if b.Txs[i].Client.IsClient() {
				l.node0[b.Txs[i].Key()]++
				l.node0Txs++
			}
		}
	}
}

// heads reports whether each replica's last hooked commit is at the
// height heights gives for it.
func (l *ledgerCheck) heads(heights []uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, h := range heights {
		if b := l.last[types.NodeID(i)]; b == nil || uint64(b.Height) != h {
			return false
		}
	}
	return true
}

// verify runs every check: one block per height across every replica
// (rebooted incarnations included), and each replica's committed
// height (heights, from Status) reached through agreed blocks;
// every certified transaction exactly once in node 0's ledger; and
// offered = committed + failed + outstanding.
func (l *ledgerCheck) verify(heights []uint64, acct accounting, certified map[types.TxKey]struct{}) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.failures) > 0 {
		return fmt.Errorf("replicas disagree: %v", l.failures)
	}
	for i, h := range heights {
		b := l.last[types.NodeID(i)]
		if b == nil || uint64(b.Height) != h {
			return fmt.Errorf("node %d reports committed height %d but its commit hook saw %v", i, h, b)
		}
		if want, ok := l.byHeight[b.Height]; !ok || want != b.Hash() {
			return fmt.Errorf("node %d head at height %d disagrees with the cluster", i, b.Height)
		}
	}
	for k := range certified {
		if n := l.node0[k]; n != 1 {
			return fmt.Errorf("certified transaction %v/%d appears %d times in node 0's ledger", k.Client, k.Seq, n)
		}
	}
	if uint64(len(certified)) != acct.committed {
		return fmt.Errorf("%d certified keys but %d commits counted", len(certified), acct.committed)
	}
	if acct.offered != acct.committed+acct.failed+acct.outstanding {
		return fmt.Errorf("offered %d != committed %d + failed %d + outstanding %d",
			acct.offered, acct.committed, acct.failed, acct.outstanding)
	}
	return nil
}
