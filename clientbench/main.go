// Command clientbench is the repository's client-observed benchmark.
//
// It boots an in-process three-replica Achilles cluster on loopback TCP,
// wired like achilles-node with its shipped defaults, drives it
// open-loop from this process over at most nproc client connections,
// checks the cluster's outputs, and prints one workload's metrics:
//
//	clientbench -workload lan-interactive -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run.
// With -trace 1 it runs the workload traced (every layer wrapped from
// outside, see traced.go) and prints the per-layer metrics. The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}; a failed correctness
// check exits nonzero without it. See README.md for the workloads and
// the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndSpecs are the gated end-to-end metrics (untraced runs only):
// defined and nonzero on every workload, and steady from run to run.
// cpu_ms_geomean is the one the program's cost moves below saturation
// (README.md says why it is a geometric mean): at a fixed open-loop
// rate the cluster keeps up, so goodput_tps equals the offered rate
// and only catches a cluster that falls behind it.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_geomean", "ms"},
	{"goodput_tps", "1/s"},
}

// extraSpecs are end-to-end figures printed in the table but not in
// the result line: they move with the host's spare CPU by more than a
// gate may allow (the two factors of cpu_ms_geomean, the latencies),
// are constant by construction below saturation (commit_ratio,
// fail_ratio), or do not apply to every workload.
var extraSpecs = []metricSpec{
	{"cpu_ms_per_block", "ms"},
	{"cpu_us_per_tx", "us"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"commit_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"stall_max_ms", "ms"},
	{"capacity_tps", "1/s"},
	{"rejoin_s", "s"},
}

// layerSpecs are the traced run's per-layer metrics.
var layerSpecs = []metricSpec{
	{"crypto.sign_per_block", "count"},
	{"crypto.verify_per_block", "count"},
	{"crypto.batch_verify_per_block", "count"},
	{"crypto.sign_us", "us"},
	{"crypto.verify_us", "us"},
	{"crypto.ms_per_block", "ms"},
	{"tee.ecalls_per_block", "count"},
	{"tee.seal_puts_per_block", "count"},
	{"tee.seal_put_us", "us"},
	{"wal.fsyncs_per_block", "count"},
	{"wal.fsync_p99_ms", "ms"},
	{"wal.bytes_per_tx", "B"},
	{"sched.step_us_mean", "us"},
	{"sched.ingress_wait_p50_us", "us"},
	{"sched.ingress_wait_p99_us", "us"},
	{"sched.loop_busy_frac", "ratio"},
	{"sched.execute_us_per_block", "us"},
	{"sched.egress_us_per_tx", "us"},
	{"mempool.wait_p50_ms", "ms"},
	{"mempool.wait_p99_ms", "ms"},
	{"mempool.depth_max", "count"},
	{"transport.peer_frames_per_block", "count"},
	{"transport.peer_bytes_per_block", "B"},
	{"transport.client_bytes_per_tx", "B"},
	{"codec.client_request_rt_us", "us"},
	{"codec.proposal_rt_us", "us"},
	{"core.blocks_per_s", "1/s"},
	{"core.txs_per_block", "count"},
	{"core.empty_block_frac", "ratio"},
	{"core.commit_gap_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_cpu_pct", "%"},
}

// crashLayerSpecs are the recovery layers. Only a crash workload runs
// them (elsewhere they read 0 or time a cold boot), so they are printed
// in its table but are not per-layer metrics of the gated workloads.
var crashLayerSpecs = []metricSpec{
	{"core.view_timeouts", "count"},
	{"core.block_sync_requests", "count"},
	{"ledger.restore_ms", "ms"},
	{"recovery.algo3_s", "s"},
	{"recovery.init_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed (arrivals, sessions, payloads)")
		seconds = flag.Int("seconds", 40, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workDir = flag.String("work-dir", ".bench_build/work", "scratch directory for data directories")
		outDir  = flag.String("out", ".bench_build/results", "directory for the full result files")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: clientbench -workload {%s} -seed N -seconds S -trace {0|1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := mainErr(wl, *seed, *seconds, *trace == 1, *workDir, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "clientbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func mainErr(wl workload, seed int64, seconds int, traced bool, workDir, outDir string) error {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", wl.name, seed, os.Getpid()))
	defer removeAll(dir)
	prov := provenance(seed)
	fmt.Printf("clientbench workload=%s seed=%d seconds=%d trace=%v rev=%s go=%s gomaxprocs=%d nproc=%d\n",
		wl.name, seed, seconds, traced, prov.Rev, prov.Go, prov.GOMAXPROCS, prov.NProc)

	// A traced run reports per-layer metrics only; end-to-end numbers
	// come from untraced runs.
	res, err := run(wl, seed, seconds, filepath.Join(dir, map[bool]string{false: "untraced", true: "traced"}[traced]), traced)
	if err != nil {
		return err
	}
	e2e := endToEnd(wl, res)
	if traced {
		fmt.Println("(end-to-end figures of a traced run are not comparable with untraced ones)")
	}
	printTable("end-to-end", e2e, append(append([]metricSpec(nil), endToEndSpecs...), extraSpecs...))
	printSamples(wl, res)
	out := resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	var acct accounting
	for _, r := range res.rounds {
		out.Attempted += uint64(len(r.recs))
		out.Failed += uint64(len(r.recs) - certifiedIn(r.recs))
		acct.offered += r.acct.offered
		acct.committed += r.acct.committed
		acct.failed += r.acct.failed
		acct.outstanding += r.acct.outstanding
	}
	full := map[string]any{
		"provenance":   prov,
		"workload":     wl.name,
		"traced":       traced,
		"end_to_end":   e2e,
		"setup_s_each": res.setup,
		"steps":        res.rounds[len(res.rounds)-1].steps,
		"accounting": map[string]uint64{
			"offered": acct.offered, "committed": acct.committed,
			"failed": acct.failed, "outstanding": acct.outstanding,
		},
	}
	specs := endToEndSpecs
	var values map[string]float64 = e2e
	if traced {
		lm := layerMetrics(wl, res)
		shown := layerSpecs
		if wl.crash {
			shown = append(append([]metricSpec(nil), layerSpecs...), crashLayerSpecs...)
		}
		printTable("per-layer (traced)", lm, shown)
		full["per_layer"] = lm
		specs, values = layerSpecs, lm
	}
	for _, s := range specs {
		out.Metrics[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	if err := writeResult(outDir, wl.name, seed, traced, full); err != nil {
		fmt.Fprintf(os.Stderr, "clientbench: %v\n", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(title string, values map[string]float64, specs []metricSpec) {
	fmt.Printf("== %s ==\n", title)
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.4f %s\n", s.name, v, s.unit)
	}
}

// printSamples states the sample counts behind the percentiles and how
// late the loader ran.
func printSamples(wl workload, res *result) {
	for i, r := range res.rounds {
		f := roundMetrics(wl, r)
		fmt.Printf("  cluster %d: %d fixed-rate txs: p50=%.3fms p99=%.3fms; %d slices: cpu/tx=%.1fus cpu/block=%.3fms geomean=%.3fms blocks/s=%.0f; loader lag p99=%.3fms over %d dispatches\n",
			i, len(r.base), f.p50, f.p99, len(f.cpuPerBlock), median(f.cpuPerTx), median(f.cpuPerBlock), median(f.cpuGeomean),
			median(f.blocksPerSec), quantile(r.lag, 0.99), len(r.lag))
	}
	for i, s := range res.rounds[len(res.rounds)-1].steps {
		fmt.Printf("  step %d: rate=%.0f p99=%.2fms (n=%d) backlog_growth=%d passed=%v\n",
			i, s.Rate, s.P99MS, s.N, s.Growth, s.Passed)
	}
}

func writeResult(dir, name string, seed int64, traced bool, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("results directory: %w", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, map[bool]int{false: 0, true: 1}[traced]))
	return os.WriteFile(file, data, 0o644)
}
