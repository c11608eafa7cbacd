package harness

import (
	"testing"
	"time"

	"achilles/internal/obs"
)

// TestPipelineSpeedupSmoke is the CI bench-smoke gate for chained
// pipelining: on a live loopback n=3 cluster, depth 4 must commit at
// least as much as depth 1 over a reduced measurement window. One
// reduced window is noisy, so the gate runs three depth-1/depth-4
// pairs interleaved (drift over the process's lifetime lands on both
// depths alike) and compares the medians. The full-window sweep
// (`make bench-pipeline`) measures the actual speedup; this only guards
// against a regression that makes the pipelined window slower than
// lock-step, so it compares with no margin and fails loudly when depth
// 4 loses.
func TestPipelineSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP bench smoke; skipped in -short")
	}
	const rounds = 3
	d := Durations{Warmup: 500 * time.Millisecond, Window: 2 * time.Second}
	var depth1, depth4 []float64
	for i := 0; i < rounds; i++ {
		port := 29871 + 200*i
		r1, _ := runLiveCluster(1, 3, port, d, nil, 0)
		r4, _ := runLiveCluster(4, 3, port+100, d, nil, 0)
		t.Logf("round %d: depth=1 %.1fk tps (%d blocks); depth=4 %.1fk tps (%d blocks)",
			i+1, r1.TPSk, r1.Blocks, r4.TPSk, r4.Blocks)
		if r1.Blocks == 0 || r4.Blocks == 0 {
			t.Fatalf("round %d: a configuration committed nothing: depth1=%d depth4=%d blocks",
				i+1, r1.Blocks, r4.Blocks)
		}
		depth1 = append(depth1, r1.TPSk)
		depth4 = append(depth4, r4.TPSk)
	}
	m1, m4 := obs.SummarizeFloats(depth1).P50, obs.SummarizeFloats(depth4).P50
	t.Logf("median of %d: depth=1 %.1fk tps; depth=4 %.1fk tps", rounds, m1, m4)
	if m4 < m1 {
		t.Fatalf("pipelining regression: median depth-4 %.1fk tps < median depth-1 %.1fk tps", m4, m1)
	}
}
