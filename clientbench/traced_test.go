package main

import (
	"testing"

	"achilles/internal/crypto"
	"achilles/internal/sched"
	"achilles/internal/types"
)

// minimalSched is a Scheduler without the optional HeightSequencer.
type minimalSched struct{ sched.Scheduler }

// The traced run must take the untraced run's code paths: the replica
// type-asserts its scheme for crypto.BatchVerifier and its scheduler
// for sched.HeightSequencer, so a wrapper must expose exactly the
// optional interfaces of what it wraps.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newClusterTrace()

	if _, ok := tr.scheme(crypto.ECDSAScheme{}).(crypto.BatchVerifier); !ok {
		t.Error("traced ECDSA scheme lost crypto.BatchVerifier")
	}
	if _, ok := tr.scheme(crypto.FastScheme{}).(crypto.BatchVerifier); ok {
		t.Error("traced scheme without batch verification claims crypto.BatchVerifier")
	}

	n := tr.node()
	if _, ok := n.sched(sched.NewSync()).(sched.HeightSequencer); !ok {
		t.Error("traced Sync scheduler lost sched.HeightSequencer")
	}
	if _, ok := n.sched(minimalSched{sched.NewSync()}).(sched.HeightSequencer); ok {
		t.Error("traced scheduler without height sequencing claims sched.HeightSequencer")
	}
}

// Forwarded calls must reach the wrapped implementation and, with the
// window open, be counted.
func TestWrappersForwardAndCount(t *testing.T) {
	tr := newClusterTrace()
	tr.on.Store(true)
	s := tr.scheme(crypto.ECDSAScheme{})
	priv, pub := s.KeyPair(1, 0)
	msg := []byte("payload")
	sig := s.Sign(priv, msg)
	if !s.Verify(pub, msg, sig) {
		t.Fatal("traced verify rejected a valid signature")
	}
	bv, ok := s.(crypto.BatchVerifier)
	if !ok {
		t.Fatal("traced ECDSA scheme lost crypto.BatchVerifier")
	}
	if !bv.VerifyBatch([]crypto.PublicKey{pub}, msg, []types.Signature{sig}) {
		t.Fatal("traced batch verify rejected a valid signature")
	}
	if tr.sign.n.Load() != 1 || tr.verify.n.Load() != 1 || tr.batch.n.Load() != 1 {
		t.Fatalf("counts sign=%d verify=%d batch=%d, want 1 each",
			tr.sign.n.Load(), tr.verify.n.Load(), tr.batch.n.Load())
	}

	var ran []types.Height
	hs := tr.node().sched(sched.NewSync()).(sched.HeightSequencer)
	hs.ExecuteAt(7, func() { ran = append(ran, 7) })
	if len(ran) != 1 || tr.execute.n.Load() != 1 {
		t.Fatalf("ExecuteAt ran %v, execute count %d", ran, tr.execute.n.Load())
	}
}
