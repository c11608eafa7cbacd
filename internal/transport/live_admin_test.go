package transport_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"achilles/internal/admin"
	"achilles/internal/core"
	"achilles/internal/crypto"
	"achilles/internal/obs"
	"achilles/internal/protocol"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// httpGet fetches url and returns the status code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of an unlabeled series from a
// Prometheus text exposition body; ok is false when the series is
// absent.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, found := strings.CutPrefix(line, name+" ")
		if !found {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestLiveAdminEndpoints runs a real 3-node TCP cluster with the admin
// HTTP server enabled on node 0 and validates the observability
// surface end to end: /metrics exposes the consensus, TEE, mempool and
// transport families with the commit series increasing across scrapes,
// /status reports the replica's position, and /healthz reports 200
// while the node commits.
func TestLiveAdminEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("live admin scrape test skipped in -short mode")
	}
	registerAchilles()
	const (
		n    = 3
		f    = 1
		seed = 99
	)
	scheme := crypto.ECDSAScheme{}
	ring := crypto.NewKeyRing()
	privs := make([]crypto.PrivateKey, n)
	for i := 0; i < n; i++ {
		p, pub := scheme.KeyPair(seed, types.NodeID(i))
		ring.Add(types.NodeID(i), pub)
		privs[i] = p
	}
	peers := transport.LocalPeers(n, 23871)

	var commits [n]atomic.Uint64
	runtimes := make([]*transport.Runtime, n)
	var rep0 *core.Replica
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		var secret [32]byte
		secret[0] = byte(id)
		cfg := core.Config{
			Config: protocol.Config{
				Self: id, N: n, F: f,
				BatchSize: 16, PayloadSize: 8,
				BaseTimeout: 250 * time.Millisecond, Seed: seed,
			},
			Scheme:            scheme,
			Ring:              ring,
			Priv:              privs[id],
			MachineSecret:     secret,
			SyntheticWorkload: true,
		}
		if id == 0 {
			cfg.Obs = reg
			cfg.Trace = tracer
		}
		rep := core.New(cfg)
		if id == 0 {
			rep0 = rep
		}
		rt := transport.New(transport.Config{
			Self:   id,
			Listen: peers[id],
			Peers:  peers,
			Scheme: scheme,
			Ring:   ring,
			Priv:   privs[id],
			OnCommit: func(b *types.Block, cc *types.CommitCert) {
				commits[id].Add(1)
			},
		}, rep)
		if err := rt.Start(); err != nil {
			t.Fatalf("start node %v: %v", id, err)
		}
		runtimes[i] = rt
	}
	defer func() {
		for _, rt := range runtimes {
			rt.Stop()
		}
	}()

	srv, err := admin.Start("127.0.0.1:0", admin.Config{
		Registry: reg,
		Tracer:   tracer,
		Replica:  rep0,
		Runtime:  runtimes[0],
	})
	if err != nil {
		t.Fatalf("admin start: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	waitCommits := func(target uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if commits[0].Load() >= target {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("node 0 stuck at %d/%d commits", commits[0].Load(), target)
	}

	// First scrape after a handful of commits.
	waitCommits(3)
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	v1, ok := metricValue(body, "achilles_commits_total")
	if !ok || v1 <= 0 {
		t.Fatalf("/metrics: achilles_commits_total missing or zero:\n%s", body)
	}
	for _, want := range []string{
		"achilles_commit_latency_seconds_bucket{",
		"achilles_committed_height ",
		"achilles_view ",
		"achilles_recovering ",
		"achilles_recovery_attempts_total ",
		"achilles_recoveries_completed_total ",
		"achilles_tee_ecalls_total{",
		"achilles_tee_modelled_cost_seconds_total ",
		"achilles_mempool_synthetic_total ",
		"achilles_transport_frames_sent_total{",
		"achilles_transport_active_routes ",
		"achilles_ledger_retained_bodies ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics: series %q absent", want)
		}
	}

	// /status reflects the replica's position.
	code, body = httpGet(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status: status %d", code)
	}
	var status struct {
		Consensus core.Status                     `json:"consensus"`
		Peers     map[string]*transport.PeerStats `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status: bad JSON: %v\n%s", err, body)
	}
	if status.Consensus.Node != 0 {
		t.Errorf("/status: node = %v, want 0", status.Consensus.Node)
	}
	if status.Consensus.Height == 0 {
		t.Errorf("/status: height = 0 after %d commits", commits[0].Load())
	}
	if status.Consensus.Recovering {
		t.Errorf("/status: node reports recovering on the happy path")
	}
	if len(status.Peers) == 0 {
		t.Errorf("/status: no transport peer stats")
	}

	// A committing node is healthy.
	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d (%s)", code, body)
	}

	// /trace has protocol events.
	code, body = httpGet(t, base+"/trace?n=16")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d", code)
	}
	var trace struct {
		Total  uint64            `json:"total"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace: bad JSON: %v\n%s", err, body)
	}
	if trace.Total == 0 || len(trace.Events) == 0 {
		t.Errorf("/trace: no events recorded (total=%d)", trace.Total)
	}

	// Commit series must increase across scrapes as the cluster runs.
	waitCommits(commits[0].Load() + 3)
	_, body = httpGet(t, base+"/metrics")
	v2, ok := metricValue(body, "achilles_commits_total")
	if !ok || v2 <= v1 {
		t.Fatalf("/metrics: achilles_commits_total did not increase: %v -> %v", v1, v2)
	}
}
