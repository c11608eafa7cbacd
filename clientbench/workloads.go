package main

// The three workloads and the run that measures one of them.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"achilles/internal/loadgen"
	"achilles/internal/types"
)

// workload is one seeded traffic mix.
type workload struct {
	name string
	// rate is the fixed offered load in tx/s (where a ramp starts).
	rate     float64
	size     int // payload bytes per transaction
	sessions int
	// oneWay is the injected replica-to-replica delay.
	oneWay time.Duration
	// rounds is how many freshly booted clusters a run measures at the
	// fixed rate. Consecutive clusters differ by more than the slices
	// of one cluster's window do, so a run reports the median round.
	rounds int
	// ramp: after the last round's fixed-rate part, steps each growth×
	// the last, stopping at the first step whose p99 exceeds limit or
	// whose backlog grows.
	ramp   bool
	steps  int
	growth float64
	limit  time.Duration
	// crash kills node victim at ¼ of the window and reboots it at ½.
	crash  bool
	victim types.NodeID
	// drain bounds how long outstanding transactions may still finish
	// after the window closes.
	drain time.Duration
}

var workloads = map[string]workload{
	"lan-interactive": {
		name: "lan-interactive", rate: 1000, size: 64, sessions: 1000,
		rounds: 5,
		drain:  5 * time.Second,
	},
	"lan-ramp": {
		name: "lan-ramp", rate: 6000, size: 1024, sessions: 1000,
		rounds: 5,
		ramp:   true, steps: 12, growth: 1.1, limit: 50 * time.Millisecond,
		drain: 5 * time.Second,
	},
	"wan-crash": {
		name: "wan-crash", rate: 1000, size: 64, sessions: 1000,
		oneWay: 20 * time.Millisecond,
		rounds: 1,
		crash:  true, victim: 2,
		drain: 10 * time.Second,
	},
}

// Load settings shared by every workload.
const (
	// setups is how many times a run boots a cluster to its first
	// certified reply; setup_s is their median. The last wl.rounds
	// boots go on to be measured.
	setups = 21
	// warmup runs the fixed rate before a round's window opens.
	warmup   = 2 * time.Second
	tick     = time.Millisecond
	txExpiry = 10 * time.Second
	// rejoinLimit bounds how long after the window the benchmark waits
	// for a rebooted victim to catch up before failing the run.
	rejoinLimit = 30 * time.Second
	// subWindow is the length of the slices a round's fixed-rate part
	// is cut into; latency percentiles are medians over the slices, so
	// a burst of interference from outside the benchmark moves one
	// slice, not the result.
	subWindow = 2500 * time.Millisecond
)

// result is one run's measurements.
type result struct {
	setup  []float64 // seconds, per boot
	rounds []*round
	// trace and cluster belong to the last round (the traced one in a
	// traced run); the cluster is stopped.
	trace   *clusterTrace
	cluster *cluster
}

// round is one measured cluster.
type round struct {
	w0, w1 time.Duration
	recs   []txRecord // due in [w0, w1)
	// base is what was due in [base0, base1): the fixed-rate part,
	// where latency and goodput are measured.
	base         []txRecord
	base0, base1 time.Duration
	lag          []float64 // ms, sorted
	// marks are taken at each slice boundary of the fixed-rate part
	// (see slicing).
	marks []mark
	stall time.Duration
	acct  accounting

	capacity float64 // ramp: rate of the last step that passed
	steps    []stepResult
	rejoin   time.Duration // crash: reboot until caught up
}

// stepResult is one ramp step's verdict.
type stepResult struct {
	Rate   float64 `json:"rate_tps"`
	P99MS  float64 `json:"p99_ms"`
	N      int     `json:"samples"`
	Growth int     `json:"backlog_growth"`
	Passed bool    `json:"passed"`
}

// conns is the loader's connection count: at most nproc.
func conns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// spans splits the window: each round's fixed-rate part, and the ramp
// that follows the last one. A ramp takes a third of the window.
func spans(wl workload, window time.Duration) (fixed, ramp time.Duration) {
	if !wl.ramp {
		return window / time.Duration(wl.rounds), 0
	}
	ramp = window / 3
	return (window - ramp) / time.Duration(wl.rounds), ramp
}

// run measures wl once. traced wraps every layer of the last round.
func run(wl workload, seed int64, seconds int, dir string, traced bool) (*result, error) {
	res := &result{}
	fixed, ramp := spans(wl, time.Duration(seconds)*time.Second)
	for i := 0; i < setups; i++ {
		last := i == setups-1
		var tr *clusterTrace
		if traced && last {
			tr = newClusterTrace()
		}
		// Set-up: boot, offer load, stop at the first certified reply.
		t0 := time.Now()
		c, err := startCluster(filepath.Join(dir, fmt.Sprintf("boot-%d", i)), wl.oneWay, tr)
		if err != nil {
			return nil, err
		}
		d, err := newLoader(c.peers, conns(), wl.size, seed, txExpiry)
		if err != nil {
			c.stop()
			return nil, err
		}
		if tr != nil {
			tr.clock = d.now
		}
		sched := loadgen.NewSchedule(seed+int64(i)*7919, wl.rate, wl.sessions)
		d.offer(sched, 0, 30*time.Second, tick, d.anyReply.Load)
		if !d.anyReply.Load() {
			d.stop()
			c.stop()
			return nil, fmt.Errorf("boot %d: no certified reply within 30 s", i)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if i >= setups-wl.rounds {
			// A measured round: warm up at the fixed rate, then measure.
			w0 := d.now() + warmup
			d.offer(sched, 0, w0, tick, nil)
			r := &round{}
			rampSpan := time.Duration(0)
			if last {
				res.trace, res.cluster = tr, c
				rampSpan = ramp
			}
			err = measure(wl, seed+int64(i)*104729, r, c, d, tr, w0, fixed, rampSpan)
			if err == nil {
				err = settle(c, d)
			}
			d.stop()
			c.stop()
			if err != nil {
				return nil, err
			}
			if err := c.ledger.verify(c.finalHeights(), d.account(), d.certified); err != nil {
				return nil, fmt.Errorf("correctness: %w", err)
			}
			res.rounds = append(res.rounds, r)
		} else {
			d.stop()
			c.stop()
		}
		removeAll(c.dir)
	}
	return res, nil
}

// measure runs one round on a warmed cluster: the fixed rate for
// fixed, then (when rampSpan > 0) the ramp; then it drains.
func measure(wl workload, seed int64, r *round, c *cluster, d *loader, tr *clusterTrace, w0, fixed, rampSpan time.Duration) error {
	r.w0, r.w1 = w0, w0+fixed+rampSpan
	r.base0, r.base1 = w0, w0+fixed
	if tr != nil {
		tr.start(c)
	}
	var faults chan error
	if wl.crash {
		faults = make(chan error, 1)
		go func() { faults <- crashSchedule(wl, seed, r, c, d) }()
	}
	marked := make(chan []mark, 1)
	go func() {
		n, slice := slicing(wl, r)
		var ms []mark
		for k := 0; k <= n; k++ {
			sleepUntil(d, r.base0+time.Duration(k)*slice)
			ms = append(ms, mark{cpu: cpuTime(), height: c.node(0).rep.Status().Height})
		}
		marked <- ms
	}()
	d.offer(loadgen.NewSchedule(seed, wl.rate, wl.sessions), w0, r.base1, tick, nil)
	r.marks = <-marked
	if rampSpan > 0 {
		rampSchedule(wl, seed, r, d, rampSpan)
	}
	if tr != nil {
		tr.stop(c, d.now()-w0)
	}
	d.drain(r.w1 + wl.drain)
	if faults != nil {
		if err := <-faults; err != nil {
			return err
		}
	}
	recs, replies, lag := d.snapshot()
	r.recs = window(recs, r.w0, r.w1)
	r.base = window(recs, r.base0, r.base1)
	r.stall = longestGap(replies, r.w0, r.w1)
	for _, l := range lag {
		r.lag = append(r.lag, float64(l)/float64(time.Millisecond))
	}
	sort.Float64s(r.lag)
	r.acct = d.account()
	return nil
}

// rampSchedule judges the fixed-rate part as the first step, then
// offers steps each growth× the last, until a step fails its latency
// limit or grows the backlog; the rest of the span is held at the last
// rate that passed.
func rampSchedule(wl workload, seed int64, r *round, d *loader, span time.Duration) {
	step := span / time.Duration(wl.steps)
	sr := judgeStep(d, r.base0, r.base1, wl.limit, 0)
	sr.Rate = wl.rate
	r.steps = append(r.steps, sr)
	last, rate, at := 0.0, wl.rate, r.base1
	if sr.Passed {
		last, rate = wl.rate, wl.rate*wl.growth
		for i := 0; i < wl.steps && sr.Passed; i++ {
			before := d.outstanding()
			d.offer(loadgen.NewSchedule(seed+int64(i+1)*7, rate, wl.sessions), at, at+step, tick, nil)
			sr = judgeStep(d, at, at+step, wl.limit, before)
			sr.Rate = rate
			r.steps = append(r.steps, sr)
			at += step
			if sr.Passed {
				last, rate = rate, rate*wl.growth
			}
		}
	}
	r.capacity = last
	if last == 0 {
		last = wl.rate
	}
	if at < r.w1 {
		d.offer(loadgen.NewSchedule(seed+1, last, wl.sessions), at, r.w1, tick, nil)
	}
}

// judgeStep decides a ramp step at its end. A transaction due more than
// limit before the step ended and still unanswered has already missed
// the limit, so the step's p99 against the limit is known exactly.
func judgeStep(d *loader, from, to, limit time.Duration, before int) stepResult {
	recs, _, _ := d.snapshot()
	judged := window(recs, from, to-limit)
	lat := make([]float64, len(judged))
	for i, r := range judged {
		if r.outcome == txCertified {
			lat[i] = float64(r.done-r.due) / float64(time.Millisecond)
		} else {
			lat[i] = inf
		}
	}
	sort.Float64s(lat)
	p99 := quantile(lat, 0.99)
	growth := d.outstanding() - before
	offered := len(window(recs, from, to))
	return stepResult{
		P99MS:  finite(p99),
		N:      len(lat),
		Growth: growth,
		Passed: p99 <= float64(limit)/float64(time.Millisecond) && growth <= offered/20,
	}
}

// crashSchedule kills the victim at ¼ of the round's window, reboots
// it at ½ in recovery mode and waits until its committed height
// reaches the cluster head.
func crashSchedule(wl workload, seed int64, r *round, c *cluster, d *loader) error {
	span := r.w1 - r.w0
	sleepUntil(d, r.w0+span/4)
	if err := c.kill(wl.victim, seed); err != nil {
		return err
	}
	sleepUntil(d, r.w0+span/2)
	rebootAt := d.now()
	if err := c.reboot(wl.victim); err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	deadline := r.w1 + rejoinLimit
	for d.now() < deadline {
		hs := c.heights()
		head := uint64(0)
		for i, h := range hs {
			if types.NodeID(i) != wl.victim && h > head {
				head = h
			}
		}
		if hs[wl.victim] >= head && !c.node(wl.victim).rep.Status().Recovering {
			r.rejoin = d.now() - rebootAt
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("victim never caught up with the cluster head")
}

// settle waits until node 0 has committed every height a certified
// reply named: a replica may answer a client before node 0 commits the
// same block, and the ledger check reads node 0.
func settle(c *cluster, d *loader) error {
	want := d.replyHeight()
	deadline := time.Now().Add(10 * time.Second)
	for c.node(0).rep.Status().Height < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("node 0 stuck below height %d", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func sleepUntil(d *loader, t time.Duration) {
	if wait := t - d.now(); wait > 0 {
		time.Sleep(wait)
	}
}

// longestGap is the longest interval in [w0, w1] without a certified
// reply.
func longestGap(replies []time.Duration, w0, w1 time.Duration) time.Duration {
	last := w0
	var worst time.Duration
	for _, r := range replies {
		if r < w0 {
			continue
		}
		if r > w1 {
			break
		}
		if g := r - last; g > worst {
			worst = g
		}
		last = r
	}
	if g := w1 - last; g > worst {
		worst = g
	}
	return worst
}

// slicing cuts a round's fixed-rate part into subWindow slices (one
// slice under a crash, which must stay inside the measurement it
// disturbs).
func slicing(wl workload, r *round) (n int, slice time.Duration) {
	span := r.base1 - r.base0
	n = int(span / subWindow)
	if n < 1 || wl.crash {
		n = 1
	}
	return n, span / time.Duration(n)
}

// mark is the process CPU time and node 0's committed height at one
// instant.
type mark struct {
	cpu    time.Duration
	height uint64
}

// sliceFigures are one round's fixed-rate figures: latency (the
// medians over its slices) and, per slice, the CPU time per certified
// transaction, per committed block, and the geometric mean of the two.
type sliceFigures struct {
	p50, p99     float64
	cpuPerTx     []float64 // us
	cpuPerBlock  []float64 // ms
	cpuGeomean   []float64 // ms
	blocksPerSec []float64
}

// roundMetrics computes a round's sliceFigures.
func roundMetrics(wl workload, r *round) sliceFigures {
	n, slice := slicing(wl, r)
	var f sliceFigures
	var p50s, p99s []float64
	for i := 0; i < n; i++ {
		from := r.base0 + time.Duration(i)*slice
		recs := window(r.base, from, from+slice)
		lat := latencies(recs)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		if i+1 >= len(r.marks) {
			continue
		}
		cpu := r.marks[i+1].cpu - r.marks[i].cpu
		blocks := r.marks[i+1].height - r.marks[i].height
		txs := certifiedIn(recs)
		if txs == 0 || blocks == 0 {
			continue
		}
		ms := float64(cpu) / float64(time.Millisecond)
		f.cpuPerTx = append(f.cpuPerTx, ms*1e3/float64(txs))
		f.cpuPerBlock = append(f.cpuPerBlock, ms/float64(blocks))
		f.cpuGeomean = append(f.cpuGeomean, ms/math.Sqrt(float64(blocks)*float64(txs)))
		f.blocksPerSec = append(f.blocksPerSec, float64(blocks)/slice.Seconds())
	}
	f.p50, f.p99 = median(p50s), median(p99s)
	return f
}

// cpuTime is the CPU time this process (loader and every replica) has
// used so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd derives the end-to-end metrics of a run: latency is the
// median round's, the CPU figures the median slice's over every
// round; goodput and the ratios count every round.
func endToEnd(wl workload, res *result) map[string]float64 {
	var p50s, p99s, cpuTx, cpuBlock, cpuGeo []float64
	var offered, certified, baseCertified int
	var baseSpan, stall time.Duration
	for _, r := range res.rounds {
		f := roundMetrics(wl, r)
		p50s, p99s = append(p50s, f.p50), append(p99s, f.p99)
		cpuTx, cpuBlock = append(cpuTx, f.cpuPerTx...), append(cpuBlock, f.cpuPerBlock...)
		cpuGeo = append(cpuGeo, f.cpuGeomean...)
		offered += len(r.recs)
		certified += certifiedIn(r.recs)
		baseCertified += certifiedIn(r.base)
		baseSpan += r.base1 - r.base0
		if r.stall > stall {
			stall = r.stall
		}
	}
	total := math.Max(1, float64(offered))
	last := res.rounds[len(res.rounds)-1]
	m := map[string]float64{
		"setup_s":          median(res.setup),
		"cpu_us_per_tx":    median(cpuTx),
		"cpu_ms_per_block": median(cpuBlock),
		"cpu_ms_geomean":   median(cpuGeo),
		"goodput_tps":      float64(baseCertified) / baseSpan.Seconds(),
		"latency_p50_ms":   finite(median(p50s)),
		"latency_p99_ms":   finite(median(p99s)),
		"commit_ratio":     float64(certified) / total,
		"fail_ratio":       float64(offered-certified) / total,
		"stall_max_ms":     float64(stall) / float64(time.Millisecond),
	}
	if wl.ramp {
		m["capacity_tps"] = last.capacity
	}
	if wl.crash {
		m["rejoin_s"] = last.rejoin.Seconds()
	}
	return m
}

func certifiedIn(recs []txRecord) int {
	n := 0
	for _, r := range recs {
		if r.outcome == txCertified {
			n++
		}
	}
	return n
}

// finite caps a latency at the transaction expiry: +Inf stands for a
// failed transaction, which JSON cannot carry.
func finite(ms float64) float64 {
	return math.Min(ms, float64(txExpiry)/float64(time.Millisecond))
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "remove %s: %v\n", dir, err)
	}
}
