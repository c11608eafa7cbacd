package transport_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"achilles/internal/crypto"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// seqMsg is a sequence-numbered test message.
type seqMsg struct{ Seq uint64 }

func (*seqMsg) Type() string { return "test/seq" }
func (*seqMsg) Size() int    { return 8 }

// seqMsgTag is a test-range wire tag (0xf0–0xff are reserved for tests).
const seqMsgTag byte = 0xf0

func (*seqMsg) WireTag() byte                { return seqMsgTag }
func (m *seqMsg) AppendWire(b []byte) []byte { return types.WireAppendU64(b, m.Seq) }

func init() {
	types.RegisterWire(seqMsgTag, func(r *types.WireReader) types.Message { return &seqMsg{Seq: r.U64()} })
	transport.RegisterMessages(&seqMsg{})
}

// recorder is a protocol.Replica that records which seqMsg sequence
// numbers it saw and how often.
type recorder struct {
	mu   sync.Mutex
	seen map[uint64]int
}

func newRecorder() *recorder { return &recorder{seen: make(map[uint64]int)} }

func (r *recorder) Init(protocol.Env)     {}
func (r *recorder) OnTimer(types.TimerID) {}
func (r *recorder) OnMessage(from types.NodeID, msg types.Message) {
	if m, ok := msg.(*seqMsg); ok {
		r.mu.Lock()
		r.seen[m.Seq]++
		r.mu.Unlock()
	}
}

func (r *recorder) snapshot() map[uint64]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]int, len(r.seen))
	for k, v := range r.seen {
		out[k] = v
	}
	return out
}

// testKeys builds a deterministic two-node PKI.
func testKeys(t *testing.T, n int, seed int64) (crypto.ECDSAScheme, *crypto.KeyRing, []crypto.PrivateKey) {
	t.Helper()
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	return scheme, ring, privs
}

// TestReconnectAfterPeerRestart restarts a receiver on the same
// address mid-stream: the sender's dialer must back off, re-handshake
// and resume delivery, and neither incarnation of the receiver may see
// a sequence number twice (no duplicated delivery to the event loop).
func TestReconnectAfterPeerRestart(t *testing.T) {
	scheme, ring, privs := testKeys(t, 2, 41)
	peers := map[types.NodeID]string{0: "127.0.0.1:23791", 1: "127.0.0.1:23792"}

	mk := func(id types.NodeID, rep protocol.Replica) *transport.Runtime {
		return transport.New(transport.Config{
			Self: id, Listen: peers[id], Peers: peers,
			Scheme: scheme, Ring: ring, Priv: privs[id],
			DialRetry: 20 * time.Millisecond,
		}, rep)
	}

	recA := newRecorder()
	a := mk(0, recA)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	b := mk(1, newRecorder())
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	send := func(lo, hi uint64) {
		for s := lo; s < hi; s++ {
			b.Send(0, &seqMsg{Seq: s})
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor := func(rec *recorder, n int) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if len(rec.snapshot()) >= n {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}

	send(0, 30)
	if !waitFor(recA, 25) {
		t.Fatalf("first incarnation received only %d messages", len(recA.snapshot()))
	}
	a.Stop()

	// Send into the outage: these frames queue (or are lost on the
	// dying connection) while the dialer backs off.
	send(30, 40)

	recA2 := newRecorder()
	a2 := mk(0, recA2)
	if err := a2.Start(); err != nil {
		t.Fatal(err)
	}
	defer a2.Stop()

	send(40, 80)
	if !waitFor(recA2, 30) {
		t.Fatalf("no resumption after restart: second incarnation saw %d messages", len(recA2.snapshot()))
	}

	for _, snap := range []map[uint64]int{recA.snapshot(), recA2.snapshot()} {
		for seq, n := range snap {
			if n > 1 {
				t.Fatalf("sequence %d delivered %d times to one event loop", seq, n)
			}
		}
	}
	if st := b.Stats()[0]; st.Reconnects < 1 {
		t.Fatalf("sender never reconnected: %+v", st)
	}
}

// TestRouteEviction checks that a client's reply route is removed when
// its connection dies, instead of leaking and shadowing future
// replies.
func TestRouteEviction(t *testing.T) {
	scheme, ring, privs := testKeys(t, 1, 43)
	addr := "127.0.0.1:23794"
	srv := transport.New(transport.Config{
		Self: 0, Listen: addr, Peers: map[types.NodeID]string{0: addr},
		Scheme: scheme, Ring: ring, Priv: privs[0],
	}, newRecorder())
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	client := transport.New(transport.Config{
		Self:  types.ClientIDBase,
		Peers: map[types.NodeID]string{0: addr},
	}, newRecorder())
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	client.Send(0, &seqMsg{Seq: 1})

	waitRoutes := func(n int) bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if srv.ActiveRoutes() == n {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !waitRoutes(1) {
		t.Fatalf("client route never registered (routes=%d)", srv.ActiveRoutes())
	}
	client.Stop()
	if !waitRoutes(0) {
		t.Fatalf("dead client route leaked (routes=%d)", srv.ActiveRoutes())
	}
}

// TestHandshakeRequired checks the acceptor's first-frame policy: a
// connection whose first frame is not a Hello, or whose Hello claims a
// replica identity without a valid signature, is closed before any
// traffic is attributed.
func TestHandshakeRequired(t *testing.T) {
	scheme, ring, privs := testKeys(t, 2, 47)
	addr := "127.0.0.1:23796"
	rec := newRecorder()
	srv := transport.New(transport.Config{
		Self: 0, Listen: addr, Peers: map[types.NodeID]string{0: addr},
		Scheme: scheme, Ring: ring, Priv: privs[0],
	}, rec)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	expectClosed := func(name string, write func(net.Conn) error) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := write(conn); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection not closed by acceptor (read err=%v)", name, err)
		}
	}

	// First frame is consensus traffic, not a handshake.
	expectClosed("non-hello first frame", func(c net.Conn) error {
		return transport.WriteFrame(c, 1, &seqMsg{Seq: 99})
	})
	// Hello claiming replica 1 with no signature.
	expectClosed("unsigned replica hello", func(c net.Conn) error {
		return transport.WriteFrame(c, 1, &transport.Hello{From: 1, Nonce: uint64(time.Now().UnixNano())})
	})
	// Hello signed by the wrong key.
	expectClosed("mis-signed replica hello", func(c net.Conn) error {
		nonce := uint64(time.Now().UnixNano())
		sig := scheme.Sign(privs[0], crypto.HandshakePayload(1, nonce))
		return transport.WriteFrame(c, 1, &transport.Hello{From: 1, Nonce: nonce, Sig: sig})
	})
	// Hello whose envelope sender disagrees with the handshake.
	expectClosed("mismatched envelope", func(c net.Conn) error {
		nonce := uint64(time.Now().UnixNano())
		sig := scheme.Sign(privs[1], crypto.HandshakePayload(1, nonce))
		return transport.WriteFrame(c, 0, &transport.Hello{From: 1, Nonce: nonce, Sig: sig})
	})

	if len(rec.seen) != 0 {
		t.Fatalf("unauthenticated traffic reached the replica: %v", rec.seen)
	}

	// A correctly signed Hello is accepted and later frames flow.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nonce := uint64(time.Now().UnixNano())
	sig := scheme.Sign(privs[1], crypto.HandshakePayload(1, nonce))
	if err := transport.WriteFrame(conn, 1, &transport.Hello{From: 1, Nonce: nonce, Sig: sig}); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, 1, &seqMsg{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec.snapshot()[7] == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("authenticated frame never delivered: %v", rec.snapshot())
}

// TestSpoofedSenderDropped checks that after the handshake, frames
// claiming a different sender than the authenticated connection
// identity never reach the replica.
func TestSpoofedSenderDropped(t *testing.T) {
	scheme, ring, privs := testKeys(t, 3, 53)
	addr := "127.0.0.1:23798"
	rec := newRecorder()
	srv := transport.New(transport.Config{
		Self: 0, Listen: addr, Peers: map[types.NodeID]string{0: addr},
		Scheme: scheme, Ring: ring, Priv: privs[0],
	}, rec)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nonce := uint64(time.Now().UnixNano())
	sig := scheme.Sign(privs[1], crypto.HandshakePayload(1, nonce))
	if err := transport.WriteFrame(conn, 1, &transport.Hello{From: 1, Nonce: nonce, Sig: sig}); err != nil {
		t.Fatal(err)
	}
	// Authenticated as node 1, but the envelope claims node 2.
	if err := transport.WriteFrame(conn, 2, &seqMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, 1, &seqMsg{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec.snapshot()[2] == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := rec.snapshot()
	if snap[2] != 1 {
		t.Fatalf("legitimate frame lost: %v", snap)
	}
	if snap[1] != 0 {
		t.Fatalf("spoofed frame delivered: %v", snap)
	}
	if st := srv.Stats()[1]; st.ReceiveDrops == 0 {
		t.Fatalf("spoofed frame not counted as a receive drop: %+v", st)
	}
}

// TestStatsCounters sanity-checks the Stats snapshot of a working
// connection pair.
func TestStatsCounters(t *testing.T) {
	scheme, ring, privs := testKeys(t, 2, 59)
	peers := map[types.NodeID]string{}
	for i := 0; i < 2; i++ {
		peers[types.NodeID(i)] = fmt.Sprintf("127.0.0.1:%d", 23801+i)
	}
	recs := [2]*recorder{newRecorder(), newRecorder()}
	rts := [2]*transport.Runtime{}
	for i := 0; i < 2; i++ {
		id := types.NodeID(i)
		rts[i] = transport.New(transport.Config{
			Self: id, Listen: peers[id], Peers: peers,
			Scheme: scheme, Ring: ring, Priv: privs[i],
		}, recs[i])
		if err := rts[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer rts[i].Stop()
	}
	for s := uint64(0); s < 20; s++ {
		rts[0].Send(1, &seqMsg{Seq: s})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(recs[1].snapshot()) == 20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := rts[0].Stats()[1]
	if st.Sent < 20 || st.BytesSent == 0 {
		t.Fatalf("sender counters wrong: %+v", st)
	}
	if rst := rts[1].Stats()[0]; rst.Received < 20 || rst.BytesReceived == 0 {
		t.Fatalf("receiver counters wrong: %+v", rst)
	}
}
