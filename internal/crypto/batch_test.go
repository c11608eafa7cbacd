package crypto

import (
	"testing"
	"time"

	"achilles/internal/types"
)

// countingMeter counts Charge calls, one per modelled verification.
type countingMeter struct{ n int }

func (m *countingMeter) Charge(time.Duration) { m.n++ }
func (m *countingMeter) charges() int         { return m.n }

func ecdsaFixture(t *testing.T, n int) (*KeyRing, []PrivateKey, []PublicKey) {
	t.Helper()
	scheme := ECDSAScheme{}
	ring := NewKeyRing()
	privs := make([]PrivateKey, n)
	pubs := make([]PublicKey, n)
	for i := 0; i < n; i++ {
		privs[i], pubs[i] = scheme.KeyPair(21, types.NodeID(i))
		ring.Add(types.NodeID(i), pubs[i])
	}
	return ring, privs, pubs
}

// TestECDSABatchVerify exercises the raw batch equation: valid
// quorums pass, any tampering — signature bytes, wrong payload, wrong
// key — fails the batch.
func TestECDSABatchVerify(t *testing.T) {
	scheme := ECDSAScheme{}
	_, privs, pubs := ecdsaFixture(t, 5)
	msg := []byte("store-cert payload")
	sigs := make([]types.Signature, len(privs))
	for i := range privs {
		sigs[i] = scheme.Sign(privs[i], msg)
	}

	if !scheme.VerifyBatch(pubs, msg, sigs) {
		t.Fatal("valid batch rejected")
	}
	// Repeat: multipliers are fresh each call.
	if !scheme.VerifyBatch(pubs, msg, sigs) {
		t.Fatal("valid batch rejected on second pass")
	}
	// Single-signature batch degenerates correctly.
	if !scheme.VerifyBatch(pubs[:1], msg, sigs[:1]) {
		t.Fatal("singleton batch rejected")
	}

	// One flipped signature bit fails the whole batch.
	bad := append(types.Signature{}, sigs[2]...)
	bad[len(bad)-1] ^= 1
	tampered := []types.Signature{sigs[0], sigs[1], bad, sigs[3], sigs[4]}
	if scheme.VerifyBatch(pubs, msg, tampered) {
		t.Fatal("batch accepted a corrupted signature")
	}
	// Wrong payload fails.
	if scheme.VerifyBatch(pubs, []byte("other payload"), sigs) {
		t.Fatal("batch accepted signatures over a different payload")
	}
	// A signature attributed to the wrong key fails.
	swapped := append([]PublicKey{}, pubs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if scheme.VerifyBatch(swapped, msg, sigs) {
		t.Fatal("batch accepted signatures under swapped keys")
	}
	// Garbage DER fails cleanly.
	junk := []types.Signature{sigs[0], types.Signature("not-asn1"), sigs[2], sigs[3], sigs[4]}
	if scheme.VerifyBatch(pubs, msg, junk) {
		t.Fatal("batch accepted malformed DER")
	}
	// Oversized batches are refused (callers fall back).
	big := make([]PublicKey, maxBatchSigs+1)
	bigSigs := make([]types.Signature, maxBatchSigs+1)
	for i := range big {
		big[i], bigSigs[i] = pubs[0], sigs[0]
	}
	if scheme.VerifyBatch(big, msg, bigSigs) {
		t.Fatal("batch accepted more than maxBatchSigs signatures")
	}
}

// TestVerifyQuorumBatchSimPathUnchanged: a quorum check keeps the
// historical per-signature charge sequence even for a scheme that can
// batch — a collapsed charge would shift the simulator's virtual time
// and break deterministic replay.
func TestVerifyQuorumBatchSimPathUnchanged(t *testing.T) {
	scheme := ECDSAScheme{}
	ring, privs, _ := ecdsaFixture(t, 3)
	meter := &countingMeter{}
	svc := NewService(scheme, ring, privs[0], 0, meter, Costs{Verify: time.Microsecond})

	msg := []byte("decide payload")
	signers := []types.NodeID{0, 1, 2}
	sigs := make([]types.Signature, len(signers))
	for i := range signers {
		sigs[i] = scheme.Sign(privs[i], msg)
	}
	if !svc.VerifyQuorum(signers, msg, sigs) {
		t.Fatal("quorum verify failed")
	}
	if got := meter.charges(); got != len(signers) {
		t.Fatalf("sim-path quorum charged %d, want %d (one per member)", got, len(signers))
	}
}
