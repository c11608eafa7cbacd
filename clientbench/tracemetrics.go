package main

// Per-layer metrics of the traced run: the wrappers' timings and
// counts (traced.go) plus the replicas' own obs.Registry series and
// Status(), taken as differences over the measurement window.

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"achilles/internal/obs"
	"achilles/internal/transport"
	"achilles/internal/types"
)

// registrySeries are the replica series the traced run reads; each is
// summed over its label sets.
var registrySeries = []string{
	"wal_fsyncs_total",
	"wal_appended_bytes_total",
	"achilles_tee_ecalls_total",
	"achilles_view_timeouts_total",
	"achilles_block_sync_requests_total",
}

// fsyncBucket prefixes the keys seriesTotals gives the cumulative
// wal_fsync_seconds bucket counts, one per upper bound, so that the
// window's fsync latencies are differenced like any counter.
const fsyncBucket = "wal_fsync_seconds_bucket le="

// seriesTotals reads registrySeries and the fsync histogram's buckets
// from one replica's registry.
func seriesTotals(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64, len(registrySeries)+len(obs.DefFsyncBuckets)+1)
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err == nil {
		// Lines read: wal_fsync_seconds_bucket{...,le="0.001"} 42
		for _, line := range strings.Split(text.String(), "\n") {
			if !strings.HasPrefix(line, "wal_fsync_seconds_bucket{") {
				continue
			}
			_, after, ok := strings.Cut(line, `le="`)
			le, count, ok2 := strings.Cut(after, `"} `)
			n, err := strconv.ParseFloat(count, 64)
			if ok && ok2 && err == nil {
				out[fsyncBucket+le] += n
			}
		}
	}
	snap := reg.Snapshot()
	for _, name := range registrySeries {
		switch v := snap[name].(type) {
		case float64:
			out[name] = v
		case []map[string]any:
			for _, row := range v {
				if f, ok := row["value"].(float64); ok {
					out[name] += f
				}
			}
		}
	}
	return out
}

// windowState is what the traced run keeps between start and stop.
type windowState struct {
	base     map[types.NodeID]map[string]float64
	acc      map[string]float64
	stopPoll chan struct{}
	polled   sync.WaitGroup
}

// start opens the measurement window.
func (t *clusterTrace) start(c *cluster) {
	t.win = &windowState{
		base:     make(map[types.NodeID]map[string]float64),
		acc:      make(map[string]float64),
		stopPoll: make(chan struct{}),
	}
	for _, n := range c.liveNodes() {
		t.win.base[n.id] = seriesTotals(n.reg)
	}
	t.on.Store(true)
	// Mempool depth is a gauge; poll every replica's for the maximum.
	t.win.polled.Add(1)
	go func() {
		defer t.win.polled.Done()
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-t.win.stopPoll:
				return
			case <-tk.C:
			}
			for _, n := range c.liveNodes() {
				if v, ok := n.reg.Value("achilles_mempool_depth"); ok {
					t.mu.Lock()
					if v > t.depthMax {
						t.depthMax = v
					}
					t.mu.Unlock()
				}
			}
		}
	}()
}

// retire folds a dying incarnation's registry series into the window
// totals; its successor's registry starts from zero.
func (t *clusterTrace) retire(n *node) {
	if t.win == nil {
		return
	}
	cur := seriesTotals(n.reg)
	for k, v := range cur {
		t.win.acc[k] += v - t.win.base[n.id][k]
	}
	t.win.base[n.id] = map[string]float64{}
}

// stop closes the window and computes the per-layer metrics.
func (t *clusterTrace) stop(c *cluster, elapsed time.Duration) {
	t.on.Store(false)
	close(t.win.stopPoll)
	t.win.polled.Wait()
	for _, n := range c.liveNodes() {
		t.retire(n)
	}
	t.elapsed = elapsed
}

// layerMetrics derives the per-layer metrics from a traced run.
func layerMetrics(wl workload, res *result) map[string]float64 {
	t, c := res.trace, res.cluster
	last := res.rounds[len(res.rounds)-1]
	t.mu.Lock()
	blocks := float64(t.blocks)
	txs := float64(t.txs)
	empty := float64(t.empty)
	commits := append([]time.Duration(nil), t.commits...)
	req, prop := t.sampleReq, t.sampleProp
	depthMax := t.depthMax
	t.mu.Unlock()
	per := func(x, by float64) float64 {
		if by == 0 {
			return 0
		}
		return x / by
	}
	acc := t.win.acc
	m := map[string]float64{
		"crypto.sign_per_block":         per(float64(t.sign.n.Load()), blocks),
		"crypto.verify_per_block":       per(float64(t.verify.n.Load()), blocks),
		"crypto.batch_verify_per_block": per(float64(t.batch.n.Load()), blocks),
		"crypto.sign_us":                t.sign.meanUS(),
		"crypto.verify_us":              t.verify.meanUS(),
		"crypto.ms_per_block": per(float64(t.sign.ns.Load()+t.verify.ns.Load()+t.batch.ns.Load())/1e6,
			blocks),

		"tee.ecalls_per_block":    per(acc["achilles_tee_ecalls_total"], blocks),
		"tee.seal_puts_per_block": per(float64(t.sealPut.n.Load()), blocks),
		"tee.seal_put_us":         t.sealPut.meanUS(),

		"wal.fsyncs_per_block": per(acc["wal_fsyncs_total"], blocks),
		"wal.fsync_p99_ms":     fsyncP99(acc),
		"wal.bytes_per_tx":     per(acc["wal_appended_bytes_total"], txs),

		"sched.step_us_mean":              t.step.meanUS(),
		"sched.loop_busy_frac":            per(float64(t.step.ns.Load()), float64(t.elapsed)*nodeCount),
		"sched.execute_us_per_block":      per(float64(t.execute.ns.Load())/1e3, blocks),
		"sched.egress_us_per_tx":          per(float64(t.egress.ns.Load())/1e3, txs),
		"mempool.depth_max":               depthMax,
		"transport.peer_frames_per_block": per(float64(t.peerOut.writes.Load()), blocks),
		"transport.peer_bytes_per_block":  per(float64(t.peerOut.written.Load()), blocks),
		// Accepted connections carry the peers' dialed traffic inbound
		// and the clients' both ways; what is not peer traffic is client
		// traffic.
		"transport.client_bytes_per_tx": per(float64(t.accepted.read.Load()+t.accepted.written.Load())-
			float64(t.peerOut.written.Load()), txs),

		"core.blocks_per_s":        per(blocks, t.elapsed.Seconds()),
		"core.txs_per_block":       per(txs, blocks),
		"core.empty_block_frac":    per(empty, blocks),
		"core.commit_gap_p99_ms":   gapP99(commits),
		"core.view_timeouts":       acc["achilles_view_timeouts_total"],
		"core.block_sync_requests": acc["achilles_block_sync_requests_total"],

		"loadgen.lag_p99_ms": quantile(last.lag, 0.99),
	}
	wait := t.ingressWait.sorted()
	m["sched.ingress_wait_p50_us"] = quantile(wait, 0.50) * 1e3
	m["sched.ingress_wait_p99_us"] = quantile(wait, 0.99) * 1e3
	mw := t.mempoolWait.sorted()
	m["mempool.wait_p50_ms"] = quantile(mw, 0.50)
	m["mempool.wait_p99_ms"] = quantile(mw, 0.99)
	if req != nil {
		m["codec.client_request_rt_us"] = codecRoundTrip(req)
	}
	if prop != nil {
		m["codec.proposal_rt_us"] = codecRoundTrip(prop)
	}

	// Tracing overhead: the traced (last) cluster's CPU cost against the
	// untraced clusters measured before it in the same run. CPU cost,
	// not latency, because it repeats from cluster to cluster.
	var untraced []float64
	for _, r := range res.rounds[:len(res.rounds)-1] {
		untraced = append(untraced, roundMetrics(wl, r).cpuGeomean...)
	}
	if base := median(untraced); base > 0 {
		m["trace.overhead_cpu_pct"] = (median(roundMetrics(wl, last).cpuGeomean) - base) / base * 100
	}

	if wl.crash {
		victim := c.node(wl.victim)
		st := victim.rep.Status()
		m["ledger.restore_ms"] = float64(victim.tr.restore) / float64(time.Millisecond)
		m["recovery.algo3_s"] = st.RecoverySeconds
		m["recovery.init_s"] = st.InitSeconds
	}
	return m
}

// fsyncP99 is the p99 of the window's WAL fsyncs across every replica,
// from the differenced histogram buckets in acc, interpolated linearly
// within the bucket that holds it.
func fsyncP99(acc map[string]float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range acc {
		if le, ok := strings.CutPrefix(k, fsyncBucket); ok {
			bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses too
			if err == nil {
				bs = append(bs, bucket{bound, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := 0.99 * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo * 1e3
			}
			return (lo + (b.le-lo)*(rank-below)/(b.cum-below)) * 1e3
		}
		lo, below = b.le, b.cum
	}
	return lo * 1e3
}

// gapP99 is the p99 of the gaps between consecutive commits.
func gapP99(commits []time.Duration) float64 {
	if len(commits) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(commits)-1)
	for i := 1; i < len(commits); i++ {
		gaps = append(gaps, float64(commits[i]-commits[i-1])/float64(time.Millisecond))
	}
	sort.Float64s(gaps)
	return quantile(gaps, 0.99)
}

// codecRoundTrip times transport.WriteFrame + ReadFrame on msg, in
// microseconds per round trip.
func codecRoundTrip(msg types.Message) float64 {
	var buf bytes.Buffer
	const warm, rounds = 20, 200
	var total time.Duration
	for i := 0; i < warm+rounds; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := transport.WriteFrame(&buf, 0, msg); err != nil {
			return 0
		}
		if _, _, _, err := transport.ReadFrame(&buf); err != nil {
			return 0
		}
		if i >= warm {
			total += time.Since(t0)
		}
	}
	return float64(total) / rounds / 1e3
}
