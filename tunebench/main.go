// Command tunebench is WACO-Go's end-to-end benchmark. One run serves one
// named workload, generated from a workload seed, from a single in-process
// client through a cluster.Router to two serve.Server replicas over
// loopback HTTP, checks every answer, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// adds a separate traced pass and reports the per-layer ones. See README.md
// for the workloads, the metrics and why each was chosen.
//
// Usage (from the repository root):
//
//	bash tunebench/run.sh --workload tune-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"waco/internal/core"
	"waco/internal/tensor"
)

// processStart approximates process start: package variables initialise
// before main runs.
var processStart = time.Now()

// setupBuilds is how many times a run builds the tuner. setup_s reports
// the median, and every build must produce the same digest. Two keeps a
// run of the slowest workload under a minute on two CPUs.
const setupBuilds = 2

// digestProbes is how many fixed tune-cold matrices the tuner digest
// searches.
const digestProbes = 4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tunebench", flag.ContinueOnError)
	name := fs.String("workload", "tune-cold", "workload: tune-cold, predict-cold or tune-hot")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := fs.Int("seconds", 15, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for temporary files and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	dur := time.Duration(*seconds) * time.Second
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Set-up: build the tuner setupBuilds times from the fixed corpus.
	firstBuild := time.Now()
	var (
		tun     *core.Tuner
		totals  []time.Duration
		stages  []buildTimes
		digests []string
	)
	for b := 0; b < setupBuilds; b++ {
		t0 := time.Now()
		t, bt, err := buildTuner(ctx)
		if err != nil {
			return err
		}
		totals = append(totals, time.Since(t0))
		stages = append(stages, bt)
		d, err := tunerDigest(ctx, t, probeMatrices())
		if err != nil {
			return err
		}
		digests = append(digests, d)
		tun = t
		runtime.GC()
	}
	deterministic := true
	for _, d := range digests {
		deterministic = deterministic && d == digests[0]
	}

	tmpRoot := filepath.Join(*work, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fleetStart := time.Now()
	fl, err := startFleet(tun, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return err
	}
	setup := firstBuild.Sub(processStart) + medianDuration(totals) + time.Since(fleetStart)

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second}}
	defer hc.CloseIdleConnections()
	ck := newChecker(tun)

	src, err := prepare(ctx, hc, fl, w, ck, *seed, 0)
	var p *pass
	if err == nil {
		p, err = runPass(ctx, hc, w, fl.routerURL, src, dur, nil)
	}
	if cerr := fl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	badChecks := ck.check(ctx, w, p)
	q, err := ck.measureQuality(p)
	if err != nil {
		return err
	}
	lat := p.latenciesMS()

	rep := report{Attempted: len(p.outcomes), Failed: len(p.outcomes) - p.succeeded()}
	fmt.Fprintf(stdout, "tunebench: %s seed %d: %d requests in %.2f s, %d failed (%d failed checks)\n",
		w.name, *seed, rep.Attempted, p.active.Seconds(), rep.Failed, badChecks)
	fmt.Fprintf(stdout, "tuner digest %s (%d indexed schedules; %d builds, identical: %v)\n",
		digests[0], len(tun.Index.Schedules), setupBuilds, deterministic)
	fmt.Fprintf(stdout, "quality: chosen %.1f us vs FixedCSR %.1f us over %d matrices\n", q.chosenUS, q.csrUS, q.matrices)
	printFailures(stdout, p)

	if *trace == 0 {
		rep.Metrics = map[string]metric{
			"setup_s":        {setup.Seconds(), "s"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
			"requests_per_s": {float64(p.succeeded()) / p.active.Seconds(), "1/s"},
			"latency_p50_ms": {quantile(lat, 0.50), "ms"},
			"latency_p90_ms": {quantile(lat, 0.90), "ms"},
			"latency_p99_ms": {quantile(lat, 0.99), "ms"},
			"speedup_vs_csr": {q.speedup, "x"},
		}
	} else {
		tp, err := tracedPass(ctx, hc, tun, w, ck, *seed, dir, dur)
		if err != nil {
			return err
		}
		badChecks += ck.check(ctx, w, tp.pass)
		rep.Attempted += len(tp.pass.outcomes)
		rep.Failed += len(tp.pass.outcomes) - tp.pass.succeeded()
		printFailures(stdout, tp.pass)
		rep.Metrics = perLayer(tp, quantile(lat, 0.5), q, stages)
		if err := os.MkdirAll(filepath.Join(*work, "traces"), 0o755); err != nil {
			return err
		}
		out := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := tp.tr.dump(out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tp.tr.spans), out)
	}
	rep.Correct = deterministic && badChecks == 0
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", k)
		}
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", enc)
	return err
}

// probeMatrices are the fixed matrices the tuner digest searches: the
// first tune-cold matrices of the corpus seed, independent of the workload
// seed so every run's digest is comparable.
func probeMatrices() []*tensor.COO {
	out := make([]*tensor.COO, digestProbes)
	for i := range out {
		out[i] = powerLawMatrix(corpusSeed, i)
	}
	return out
}

// prepare returns the workload's request source. For tune-hot it first
// builds the pool and warms it on every replica.
func prepare(ctx context.Context, hc *http.Client, fl *fleet, w workload, ck *checker, seed int64, offset int) (source, error) {
	ck.regen = func(idx int) (request, error) { return newRequest(w, seed, idx) }
	if !w.hot {
		return coldSource(w, seed, offset), nil
	}
	pool := make([]request, hotPool)
	for i := range pool {
		r, err := newRequest(w, seed, i)
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	answers, err := warm(ctx, hc, fl.replicaURL, pool)
	if err != nil {
		return nil, err
	}
	ck.warm = answers
	return hotSource(pool), nil
}

// tracedRun is the traced pass, its spans, and the counter deltas over it.
type tracedRun struct {
	pass  *pass
	tr    *tracer
	delta counters
	waste float64 // kernel.probe_waste_ratio
}

// tracedPass starts a fresh fleet with the traced replica handler and
// router transport, and runs the workload once more on fresh inputs.
func tracedPass(ctx context.Context, hc *http.Client, tun *core.Tuner, w workload, ck *checker, seed int64, dir string, dur time.Duration) (tracedRun, error) {
	tr := newTracer(tun, ck.index)
	fl, err := startFleet(tun, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return tracedRun{}, err
	}
	tr.fl = fl
	run := tracedRun{tr: tr}
	src, err := prepare(ctx, hc, fl, w, ck, seed, tracedOffset)
	if err == nil {
		// The baseline follows the warm-up, so deltas cover the pass alone.
		before := snapshot(tun, fl)
		var skip []int
		for _, lg := range fl.obslogs {
			skip = append(skip, int(lg.Appended()))
		}
		if run.pass, err = runPass(ctx, hc, w, fl.routerURL, src, dur, tr); err == nil {
			err = fl.flushLogs()
		}
		if err == nil {
			run.delta = snapshot(tun, fl).minus(before)
			run.waste, err = probeWaste(fl.logPaths, skip)
		}
	}
	if cerr := fl.close(); err == nil {
		err = cerr
	}
	return run, err
}

// perLayer computes the per-layer metrics from the traced pass's spans and
// counter deltas.
func perLayer(tp tracedRun, untracedP50 float64, q quality, stages []buildTimes) map[string]metric {
	lt := summarize(tp.tr.spans)
	d := tp.delta
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	msPer := func(t time.Duration, n int) float64 { return per(ms(t), float64(n)) }
	roots := lt.roots
	calls := lt.count["serve.tune"] + lt.count["serve.predict"]
	stage := func(f func(buildTimes) time.Duration) float64 {
		xs := make([]float64, len(stages))
		for i, s := range stages {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	return map[string]metric{
		"cluster.route_ms":             {msPer(lt.self["cluster.route"], roots), "ms"},
		"cluster.attempts_per_request": {per(d.attempts, d.attempted), "count"},
		"serve.http_ms":                {msPer(lt.self["cluster.forward"]+lt.self["serve.http"], roots), "ms"},
		"serve.decode_ms":              {msPer(lt.total["serve.decode"], lt.count["serve.decode"]), "ms"},
		"serve.fingerprint_ms":         {msPer(lt.total["serve.fingerprint"], lt.count["serve.fingerprint"]), "ms"},
		"serve.cache_hit_ratio":        {per(d.hits, d.hits+d.misses), "ratio"},
		"serve.queue_wait_ms":          {per(d.queueWait*1e3, float64(roots)), "ms"},
		"serve.self_ms":                {msPer(lt.self["serve.tune"]+lt.self["serve.predict"], calls), "ms"},
		"core.tune_ms":                 {msPer(lt.total["core.tune"], lt.count["core.tune"]), "ms"},
		"core.self_ms":                 {msPer(lt.self["core.tune"], lt.count["core.tune"]), "ms"},
		"search.feature_ms":            {per(d.feature*1e3, d.queries), "ms"},
		"search.traverse_ms":           {per((d.traverse+d.prefilter)*1e3, d.queries), "ms"},
		"search.eval_ms":               {per(d.eval*1e3, d.queries), "ms"},
		"search.evals_per_query":       {per(d.evals, d.queries), "count"},
		"kernel.busy_ms_per_tune":      {per(d.busy*1e3, d.searches), "ms"},
		"kernel.runs_per_tune":         {per(d.runs, d.searches), "count"},
		"kernel.probe_waste_ratio":     {tp.waste, "ratio"},
		"kernel.winner_us":             {q.chosenUS, "us"},
		"kernel.csr_us":                {q.csrUS, "us"},
		"obslog.records_per_tune":      {per(d.records, d.searches), "count"},
		"obslog.dropped":               {d.dropped, "count"},
		"dataset.label_s":              {stage(func(b buildTimes) time.Duration { return b.Label }), "s"},
		"costmodel.train_s":            {stage(func(b buildTimes) time.Duration { return b.Train }), "s"},
		"search.index_build_s":         {stage(func(b buildTimes) time.Duration { return b.Index }), "s"},
		"trace.coverage":               {per(float64(lt.covered), float64(lt.rootTotal)), "ratio"},
		"trace.overhead":               {per(quantile(tp.pass.latenciesMS(), 0.5), untracedP50), "ratio"},
	}
}

// printFailures lists the first few failed requests of a pass.
func printFailures(out io.Writer, p *pass) {
	n := 0
	for _, o := range p.outcomes {
		if o.fail != "" && n < 5 {
			fmt.Fprintf(out, "failed: matrix %d: %s\n", o.req.idx, o.fail)
			n++
		}
	}
}
