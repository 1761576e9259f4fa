package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/kernel"
	"waco/internal/kernel/difftest"
	"waco/internal/schedule"
	"waco/internal/serve"
	"waco/internal/tensor"
)

// checker verifies answers against the tuner the fleet serves.
type checker struct {
	tun   *core.Tuner
	index map[string]*schedule.SuperSchedule
	warm  [][]serve.TuneResult // tune-hot: each replica's warm-up answers, by pool index
	// regen rebuilds a cold request from its index: cold outcomes keep only
	// the index, so the benchmark's memory does not grow with throughput.
	regen func(idx int) (request, error)
}

// matrix returns the outcome's matrix as the replica decoded it.
func (ck *checker) matrix(o *outcome) (*tensor.COO, error) {
	if o.req.coo != nil {
		return o.req.coo, nil
	}
	r, err := ck.regen(o.req.idx)
	return r.coo, err
}

func newChecker(tun *core.Tuner) *checker {
	idx := make(map[string]*schedule.SuperSchedule, len(tun.Index.Schedules))
	for _, ss := range tun.Index.Schedules {
		idx[ss.String()] = ss
	}
	return &checker{tun: tun, index: idx}
}

// check marks every answered request of the pass that fails its workload's
// check; it returns how many did. Checks only read the tuner, so they run
// on every CPU.
func (ck *checker) check(ctx context.Context, w workload, p *pass) int {
	var bad atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(p.outcomes); i += workers {
				o := &p.outcomes[i]
				if o.fail != "" {
					continue
				}
				var err error
				switch {
				case w.hot:
					err = ck.checkHot(o)
				case w.path == "/v1/predict":
					err = ck.checkPredict(ctx, o)
				default:
					err = ck.checkTune(o)
				}
				if err != nil {
					o.fail = "check: " + err.Error()
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return int(bad.Load())
}

// checkTune: the answer is for this matrix, names an indexed schedule, and
// that schedule computes SpMM within the differential harness's tolerance
// of the dense reference.
func (ck *checker) checkTune(o *outcome) error {
	coo, err := ck.matrix(o)
	if err != nil {
		return err
	}
	if fp := serve.Fingerprint(coo); o.tune.Fingerprint != fp {
		return fmt.Errorf("fingerprint %s, want %s", o.tune.Fingerprint, fp)
	}
	ss, ok := ck.index[o.tune.Schedule]
	if !ok {
		return fmt.Errorf("schedule %q is not in the index", o.tune.Schedule)
	}
	cfg := ck.tun.Cfg.Collect
	wl, err := kernel.NewWorkload(schedule.SpMM, coo, cfg.DenseN)
	if err != nil {
		return err
	}
	plan, err := wl.Compile(ss, cfg.Profile, cfg.MaxEntries)
	if err != nil {
		return err
	}
	if _, err := wl.Run(plan); err != nil {
		return err
	}
	ref := kernel.RefSpMM(coo, wl.BMat())
	for i, v := range wl.OutMat().Data {
		if d := math.Abs(float64(v - ref.Data[i])); !(d <= difftest.Tol) {
			return fmt.Errorf("kernel output %d off the reference by %g", i, d)
		}
	}
	return nil
}

// checkPredict: the HTTP top-k equals an in-process search on the same
// matrix, in ascending cost order.
func (ck *checker) checkPredict(ctx context.Context, o *outcome) error {
	coo, err := ck.matrix(o)
	if err != nil {
		return err
	}
	want, err := topK(ctx, ck.tun, coo, predictK)
	if err != nil {
		return err
	}
	if len(o.pred) != len(want) {
		return fmt.Errorf("%d schedules, want %d", len(o.pred), len(want))
	}
	for i := range want {
		if o.pred[i] != want[i] {
			return fmt.Errorf("rank %d is %+v, want %+v", i, o.pred[i], want[i])
		}
		if i > 0 && o.pred[i].Cost < o.pred[i-1].Cost {
			return fmt.Errorf("rank %d cost %g below rank %d", i, o.pred[i].Cost, i-1)
		}
	}
	return nil
}

// checkHot: the answer came from the cache and equals the warm-up answer of
// one of the replicas.
func (ck *checker) checkHot(o *outcome) error {
	if !o.tune.Cached {
		return fmt.Errorf("answer for pool matrix %d was not cached", o.req.idx)
	}
	got := o.tune
	got.Cached, got.Deduped = false, false
	for _, answers := range ck.warm {
		w := answers[o.req.idx]
		w.Cached, w.Deduped = false, false
		if got == w {
			return nil
		}
	}
	return fmt.Errorf("cached answer for pool matrix %d differs from every warm-up answer", o.req.idx)
}

// topK is the in-process form of /v1/predict: the index's k best schedules
// by predicted cost, searched with the server's beam width.
func topK(ctx context.Context, tun *core.Tuner, c *tensor.COO, k int) ([]serve.Predicted, error) {
	ef := tun.Cfg.SearchEf
	if ef < 6*k {
		ef = 6 * k
	}
	res, err := tun.Index.Search(ctx, costmodel.NewPattern(c), k, ef)
	if err != nil {
		return nil, err
	}
	out := make([]serve.Predicted, len(res.Candidates))
	for i, cand := range res.Candidates {
		out[i] = serve.Predicted{Schedule: cand.SS.String(), Cost: cand.Cost}
	}
	return out, nil
}

// qualityN bounds the matrices per run whose chosen schedule is timed
// against FixedCSR; qualityRounds is the alternating runs per side.
const (
	qualityN      = 48
	qualityRounds = 9
)

// quality is the answer-quality measurement of one pass.
type quality struct {
	speedup  float64 // geomean of FixedCSR time / chosen time
	chosenUS float64 // geomean of the chosen schedules' kernel times
	csrUS    float64 // geomean of FixedCSR kernel times
	matrices int
}

// chosen returns the schedule a client of this workload would run: the
// tuned winner, or for predict the best-ranked candidate that assembles and
// passes the static work check (the rule the tuner applies to probes).
func (ck *checker) chosen(o *outcome, coo *tensor.COO) (*schedule.SuperSchedule, error) {
	if o.pred == nil {
		return ck.index[o.tune.Schedule], nil
	}
	cfg := ck.tun.Cfg.Collect
	wl, err := kernel.NewWorkload(schedule.SpMM, coo, cfg.DenseN)
	if err != nil {
		return nil, err
	}
	for _, p := range o.pred {
		ss := ck.index[p.Schedule]
		if ss == nil {
			continue
		}
		plan, err := wl.Compile(ss, cfg.Profile, cfg.MaxEntries)
		if err == nil && plan.CheckWork(0) == nil {
			return ss, nil
		}
	}
	return nil, fmt.Errorf("no predicted schedule runs on matrix %d", o.req.idx)
}

// measureQuality times the chosen schedule and FixedCSR on the pass's first
// qualityN distinct matrices, alternating the two run by run so host drift
// cancels out of each ratio.
func (ck *checker) measureQuality(p *pass) (quality, error) {
	cfg := ck.tun.Cfg.Collect
	csr := schedule.DefaultSchedule(schedule.SpMM, cfg.Profile.ThreadCap)
	seen := map[int]bool{}
	var ratios, chosenT, csrT []float64
	for i := range p.outcomes {
		o := &p.outcomes[i]
		if o.fail != "" || seen[o.req.idx] || len(ratios) == qualityN {
			continue
		}
		seen[o.req.idx] = true
		coo, err := ck.matrix(o)
		if err != nil {
			return quality{}, err
		}
		ss, err := ck.chosen(o, coo)
		if err != nil {
			return quality{}, err
		}
		wl, err := kernel.NewWorkload(schedule.SpMM, coo, cfg.DenseN)
		if err != nil {
			return quality{}, err
		}
		plans := make([]kernel.Executable, 2) // 0: FixedCSR, 1: chosen
		for j, s := range []*schedule.SuperSchedule{csr, ss} {
			if plans[j], err = wl.Compile(s, cfg.Profile, cfg.MaxEntries); err != nil {
				return quality{}, err
			}
			if _, err := wl.Run(plans[j]); err != nil { // warm-up run
				return quality{}, err
			}
		}
		times := [2][]time.Duration{}
		for r := 0; r < qualityRounds; r++ {
			for k := 0; k < 2; k++ {
				j := (k + r) % 2
				t0 := time.Now()
				if _, err := wl.Run(plans[j]); err != nil {
					return quality{}, err
				}
				times[j] = append(times[j], time.Since(t0))
			}
		}
		c, w := medianDuration(times[0]).Seconds(), medianDuration(times[1]).Seconds()
		ratios = append(ratios, c/w)
		csrT = append(csrT, c*1e6)
		chosenT = append(chosenT, w*1e6)
	}
	if len(ratios) == 0 {
		return quality{}, fmt.Errorf("no successful request to measure")
	}
	return quality{speedup: geomean(ratios), chosenUS: geomean(chosenT), csrUS: geomean(csrT), matrices: len(ratios)}, nil
}
