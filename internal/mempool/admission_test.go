package mempool

import (
	"testing"
	"time"

	"achilles/internal/types"
)

func txn(client types.NodeID, seq uint32) types.Transaction {
	return types.Transaction{Client: client, Seq: seq, Payload: []byte{1}}
}

func txRange(client types.NodeID, from, n uint32) []types.Transaction {
	out := make([]types.Transaction, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, txn(client, from+i))
	}
	return out
}

// TestAdmissionTable drives Add through the depth-bound and
// token-bucket reject paths, including the refill edge cases the
// limiter must get right: zero rate (limiting disabled), burst=1
// (strict pacing), and a clock that steps backwards (no negative
// refill, no starvation).
func TestAdmissionTable(t *testing.T) {
	const client = types.ClientIDBase
	sec := func(s float64) types.Time { return types.Time(s * float64(time.Second)) }
	type step struct {
		txs  []types.Transaction
		now  types.Time
		want AdmitResult // compared on counts only
	}
	cases := []struct {
		name  string
		cfg   AdmissionConfig
		steps []step
	}{
		{
			name: "depth bound rejects not blocks",
			cfg:  AdmissionConfig{MaxDepth: 3},
			steps: []step{
				{txs: txRange(client, 1, 3), want: AdmitResult{Admitted: 3}},
				{txs: txRange(client, 4, 2), want: AdmitResult{RejectedFull: []types.TxKey{{}, {}}}},
			},
		},
		{
			name: "depth bound charges within one burst",
			cfg:  AdmissionConfig{MaxDepth: 2},
			steps: []step{
				{txs: txRange(client, 1, 5), want: AdmitResult{Admitted: 2, RejectedFull: []types.TxKey{{}, {}, {}}}},
			},
		},
		{
			name: "zero rate means unlimited",
			cfg:  AdmissionConfig{MaxDepth: 1000, ClientRate: 0},
			steps: []step{
				{txs: txRange(client, 1, 100), want: AdmitResult{Admitted: 100}},
			},
		},
		{
			name: "burst one paces strictly",
			cfg:  AdmissionConfig{ClientRate: 1, ClientBurst: 1},
			steps: []step{
				{txs: txRange(client, 1, 1), now: sec(0), want: AdmitResult{Admitted: 1}},
				{txs: txRange(client, 2, 1), now: sec(0.5), want: AdmitResult{RejectedRate: []types.TxKey{{}}}},
				{txs: txRange(client, 3, 1), now: sec(1.1), want: AdmitResult{Admitted: 1}},
			},
		},
		{
			name: "burst below one clamps to one",
			cfg:  AdmissionConfig{ClientRate: 10, ClientBurst: 0},
			steps: []step{
				{txs: txRange(client, 1, 2), now: sec(0), want: AdmitResult{Admitted: 1, RejectedRate: []types.TxKey{{}}}},
			},
		},
		{
			name: "refill caps at burst",
			cfg:  AdmissionConfig{ClientRate: 10, ClientBurst: 2},
			steps: []step{
				// After a long idle period only Burst tokens are available.
				{txs: txRange(client, 1, 2), now: sec(0), want: AdmitResult{Admitted: 2}},
				{txs: txRange(client, 3, 4), now: sec(100), want: AdmitResult{Admitted: 2, RejectedRate: []types.TxKey{{}, {}}}},
			},
		},
		{
			name: "clock skew never refills negatively",
			cfg:  AdmissionConfig{ClientRate: 1, ClientBurst: 2},
			steps: []step{
				{txs: txRange(client, 1, 2), now: sec(10), want: AdmitResult{Admitted: 2}},
				// Clock steps backwards: no tokens accrue, but the bucket
				// re-anchors rather than starving forever.
				{txs: txRange(client, 3, 1), now: sec(5), want: AdmitResult{RejectedRate: []types.TxKey{{}}}},
				{txs: txRange(client, 4, 1), now: sec(6.1), want: AdmitResult{Admitted: 1}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New()
			p.SetAdmission(tc.cfg)
			for i, st := range tc.steps {
				got := p.Add(st.txs, st.now)
				if got.Admitted != st.want.Admitted ||
					len(got.RejectedFull) != len(st.want.RejectedFull) ||
					len(got.RejectedRate) != len(st.want.RejectedRate) {
					t.Fatalf("step %d: got admitted=%d full=%d rate=%d, want admitted=%d full=%d rate=%d",
						i, got.Admitted, len(got.RejectedFull), len(got.RejectedRate),
						st.want.Admitted, len(st.want.RejectedFull), len(st.want.RejectedRate))
				}
				if got.Rejected() > 0 && got.RetryAfter <= 0 {
					t.Fatalf("step %d: rejection without RetryAfter hint", i)
				}
			}
		})
	}
}

func TestAdmissionDisabledIsLegacyBehavior(t *testing.T) {
	p := New()
	// Zero-value config: SetAdmission must remove any limiter.
	p.SetAdmission(AdmissionConfig{})
	res := p.Add(txRange(types.ClientIDBase, 1, 10000), 0)
	if res.Admitted != 10000 || res.Rejected() != 0 {
		t.Fatalf("admission disabled but outcome = %+v", res)
	}
}

func TestRateLimitIsPerClient(t *testing.T) {
	p := New()
	p.SetAdmission(AdmissionConfig{ClientRate: 1, ClientBurst: 1})
	a := p.Add([]types.Transaction{txn(types.ClientIDBase, 1)}, 0)
	b := p.Add([]types.Transaction{txn(types.ClientIDBase+1, 1)}, 0)
	if a.Admitted != 1 || b.Admitted != 1 {
		t.Fatalf("independent clients throttled each other: %+v %+v", a, b)
	}
	c := p.Add([]types.Transaction{txn(types.ClientIDBase, 2)}, 0)
	if len(c.RejectedRate) != 1 {
		t.Fatalf("same client not throttled: %+v", c)
	}
}

func TestPriorityLaneOrdering(t *testing.T) {
	p := New()
	p.SetAdmission(AdmissionConfig{MaxDepth: 10})
	ordinary := txRange(types.ClientIDBase, 1, 3)
	p.Add(ordinary, 0)
	// Requeue bypasses admission even when it would overflow MaxDepth,
	// and its transactions come out ahead of older ordinary traffic.
	requeued := txRange(types.ClientIDBase+1, 1, 2)
	p.Requeue(requeued)
	batch := p.NextBatch(10, 0)
	if len(batch) != 5 {
		t.Fatalf("batch = %d txs", len(batch))
	}
	for i, want := range append(append([]types.Transaction{}, requeued...), ordinary...) {
		if batch[i].Key() != want.Key() {
			t.Fatalf("batch[%d] = %+v, want %+v (priority lane must drain first)", i, batch[i].Key(), want.Key())
		}
	}
	if got := p.Stats().Requeued; got != 2 {
		t.Fatalf("requeued stat = %d", got)
	}
}

func TestRequeueSkipsCommittedAndSynthetic(t *testing.T) {
	p := New()
	committed := txn(types.ClientIDBase, 1)
	p.Add([]types.Transaction{committed}, 0)
	batch := p.NextBatch(1, 0)
	p.MarkCommitted(batch)
	synth := types.Transaction{Client: types.SyntheticIDBase + 1, Seq: 9}
	p.Requeue([]types.Transaction{committed, synth})
	if p.Len() != 0 {
		t.Fatalf("committed/synthetic txs requeued: len=%d", p.Len())
	}
}
