package mempool

import (
	"testing"

	"achilles/internal/types"
)

func tx(client types.NodeID, seq uint32) types.Transaction {
	return types.Transaction{Client: client, Seq: seq, Payload: []byte{byte(seq)}}
}

func TestAddAndBatch(t *testing.T) {
	p := New()
	p.Add([]types.Transaction{tx(types.ClientIDBase, 1), tx(types.ClientIDBase, 2)}, 0)
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	batch := p.NextBatch(10, 0)
	if len(batch) != 2 {
		t.Fatalf("batch = %d txs", len(batch))
	}
	if p.Len() != 0 {
		t.Fatal("batch did not drain queue")
	}
}

func TestDeduplication(t *testing.T) {
	p := New()
	a := tx(types.ClientIDBase, 1)
	p.Add([]types.Transaction{a, a}, 0)
	if p.Len() != 1 {
		t.Fatalf("duplicate enqueued: len = %d", p.Len())
	}
	p.Add([]types.Transaction{a}, 0)
	if p.Len() != 1 {
		t.Fatal("re-add of pending tx enqueued")
	}
}

func TestCommittedNotReadded(t *testing.T) {
	p := New()
	a := tx(types.ClientIDBase, 1)
	p.Add([]types.Transaction{a}, 0)
	batch := p.NextBatch(1, 0)
	p.MarkCommitted(batch)
	// A client retransmission of a committed tx must be dropped.
	p.Add([]types.Transaction{a}, 0)
	if p.Len() != 0 {
		t.Fatal("committed tx re-enqueued")
	}
}

func TestBatchRespectsLimit(t *testing.T) {
	p := New()
	for i := uint32(0); i < 10; i++ {
		p.Add([]types.Transaction{tx(types.ClientIDBase, i)}, 0)
	}
	batch := p.NextBatch(4, 0)
	if len(batch) != 4 || p.Len() != 6 {
		t.Fatalf("batch=%d remaining=%d", len(batch), p.Len())
	}
}

func TestSyntheticFill(t *testing.T) {
	p := NewSynthetic(3, 64)
	now := types.Time(12345)
	batch := p.NextBatch(100, now)
	if len(batch) != 100 {
		t.Fatalf("synthetic batch = %d", len(batch))
	}
	seen := map[types.TxKey]bool{}
	for _, x := range batch {
		if !x.Client.IsSynthetic() {
			t.Fatalf("synthetic tx has client %v", x.Client)
		}
		if len(x.Payload) != 64 {
			t.Fatalf("payload size = %d", len(x.Payload))
		}
		if x.Created != now {
			t.Fatalf("created = %v", x.Created)
		}
		if seen[x.Key()] {
			t.Fatal("duplicate synthetic tx in one batch")
		}
		seen[x.Key()] = true
	}
	// A second batch must be entirely fresh.
	for _, x := range p.NextBatch(100, now) {
		if seen[x.Key()] {
			t.Fatal("synthetic generator repeated a tx")
		}
	}
}

func TestSyntheticPrefersClientTxs(t *testing.T) {
	p := NewSynthetic(3, 16)
	real := tx(types.ClientIDBase, 9)
	p.Add([]types.Transaction{real}, 0)
	batch := p.NextBatch(5, 0)
	if len(batch) != 5 {
		t.Fatalf("batch = %d", len(batch))
	}
	if batch[0].Key() != real.Key() {
		t.Fatal("client tx not ordered first")
	}
	for _, x := range batch[1:] {
		if !x.Client.IsSynthetic() {
			t.Fatal("fill txs must be synthetic")
		}
	}
}

func TestMarkCommittedSkipsSynthetic(t *testing.T) {
	p := NewSynthetic(3, 16)
	batch := p.NextBatch(8, 0)
	p.MarkCommitted(batch) // must not grow the done set
	if len(p.done) != 0 {
		t.Fatalf("synthetic txs tracked in done set: %d", len(p.done))
	}
}

// TestNextBatchExcludingKeepsSkippedPending: transactions in the skip
// set are left out of the batch but stay queued, in order, in both the
// ordinary queue and the priority lane, so a later batch carries them
// once they are no longer excluded; duplicates of them stay refused.
func TestNextBatchExcludingKeepsSkippedPending(t *testing.T) {
	c := types.ClientIDBase
	p := New()
	p.Add([]types.Transaction{tx(c, 1), tx(c, 2), tx(c, 3), tx(c, 4)}, 0)
	p.Requeue([]types.Transaction{tx(c, 9), tx(c, 8)})
	skip := map[types.TxKey]struct{}{{Client: c, Seq: 9}: {}, {Client: c, Seq: 2}: {}, {Client: c, Seq: 3}: {}}
	keys := func(txs []types.Transaction) []uint32 {
		var out []uint32
		for _, tx := range txs {
			out = append(out, tx.Seq)
		}
		return out
	}
	if got := keys(p.NextBatchExcluding(2, 0, skip)); len(got) != 2 || got[0] != 8 || got[1] != 1 {
		t.Fatalf("first batch = %v, want [8 1]", got)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (skipped transactions stay pending)", p.Len())
	}
	if res := p.Add([]types.Transaction{tx(c, 2)}, 0); res.Duplicates != 1 {
		t.Fatal("a skipped transaction was forgotten by the dedup set")
	}
	if got := keys(p.NextBatch(10, 0)); len(got) != 4 || got[0] != 9 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("second batch = %v, want [9 2 3 4]", got)
	}
}
