package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/dataset"
	"waco/internal/format"
	"waco/internal/generate"
	"waco/internal/kernel"
	"waco/internal/parallelism"
	"waco/internal/schedule"
	"waco/internal/tensor"
)

// corpusSeed fixes the training corpus and the tuner build. It is not the
// workload seed: every run serves the same tuner, and workload seeds vary
// only the requests.
const corpusSeed = 20230325

// tunerConfig is core.DefaultConfig(SpMM) with serial kernels. One kernel
// thread keeps kernel threads plus client goroutines within two CPUs, which
// removes the straggler noise that two-thread plans show.
func tunerConfig() core.Config {
	cfg := core.DefaultConfig(schedule.SpMM)
	cfg.Collect.Profile = kernel.MachineProfile{Name: "serial", ThreadCap: 1}
	cfg.Collect.Seed = corpusSeed
	return cfg
}

// trainCorpus is the fixed training population: 24 matrices cycling
// through every generator family at n in [256, 1024].
func trainCorpus() []generate.Matrix {
	return generate.Corpus(generate.CorpusConfig{
		Count: 24, Seed: corpusSeed, MinDim: 256, MaxDim: 1024, MaxNNZ: 20_000, Square: true,
	})
}

// buildTimes splits one tuner build into its offline stages.
type buildTimes struct {
	Label time.Duration // sample schedules and label them analytically
	Train time.Duration // cost-model training
	Index time.Duration // HNSW index over the sampled schedules
}

// buildTuner builds the benchmark's tuner in process: the same stages as
// core.BuildContext, except that every sampled schedule is labelled with an
// analytic proxy instead of a wall-clock runtime. Two builds therefore
// train the same model and index the same schedules.
func buildTuner(ctx context.Context) (*core.Tuner, buildTimes, error) {
	var bt buildTimes
	cfg := tunerConfig()
	t0 := time.Now()
	ds, err := labelCorpus(ctx, trainCorpus(), cfg.Collect)
	if err != nil {
		return nil, bt, err
	}
	t1 := time.Now()
	bt.Label = t1.Sub(t0)
	model, err := costmodel.New(cfg.Collect.Space, cfg.Model)
	if err != nil {
		return nil, bt, err
	}
	train, val := ds.Split(cfg.ValFrac, cfg.Train.Seed)
	if _, err := costmodel.TrainContext(ctx, model, train, val, cfg.Train); err != nil {
		return nil, bt, err
	}
	t2 := time.Now()
	bt.Train = t2.Sub(t1)
	tun, err := core.NewTunerContext(ctx, model, ds, cfg)
	if err != nil {
		return nil, bt, err
	}
	bt.Index = time.Since(t2)
	return tun, bt, nil
}

// labelCorpus samples schedules per matrix exactly as dataset.CollectEntry
// does (same per-matrix streams, concordant fraction and dedup), keeps the
// ones that assemble under the storage budget and pass the static work
// check, and labels each with analyticSeconds.
func labelCorpus(ctx context.Context, mats []generate.Matrix, cc dataset.CollectConfig) (*dataset.Dataset, error) {
	entries := make([]*dataset.Entry, len(mats))
	err := parallelism.ForEach(ctx, nil, parallelism.PhaseCollect, len(mats), 0, func(_, i int) error {
		m := mats[i]
		wl, err := kernel.NewWorkload(cc.Alg, m.COO, cc.DenseN)
		if err != nil {
			return err
		}
		rng := parallelism.ShardRand(cc.Seed, int64(i))
		e := &dataset.Entry{Name: m.Name, Family: m.Family, COO: m.COO}
		seen := map[string]bool{}
		for n := 0; n < cc.SchedulesPerMatrix; n++ {
			var ss *schedule.SuperSchedule
			if cc.ConcordantFrac > 0 && rng.Float64() < cc.ConcordantFrac {
				ss = cc.Space.SampleConcordant(rng)
			} else {
				ss = cc.Space.Sample(rng)
			}
			if k := ss.String(); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			plan, err := wl.Compile(ss, cc.Profile, cc.MaxEntries)
			if format.IsStorageLimit(err) {
				continue
			}
			if err != nil {
				return fmt.Errorf("matrix %s: %w", m.Name, err)
			}
			if plan.CheckWork(cc.MaxWork) != nil {
				continue
			}
			e.Samples = append(e.Samples, dataset.Sample{
				SS: ss, Seconds: analyticSeconds(plan, ss, cc.Profile), Bytes: plan.StoredBytes(),
			})
		}
		entries[i] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("label corpus: %w", err)
	}
	ds := &dataset.Dataset{Alg: cc.Alg, DenseN: cc.DenseN, Profile: cc.Profile}
	for _, e := range entries {
		if len(e.Samples) > 0 {
			ds.Entries = append(ds.Entries, e)
		}
	}
	return ds, nil
}

// analyticSeconds is the deterministic runtime proxy: the compiled plan's
// loop-nest work estimate divided by the threads the machine profile lets
// the schedule use.
func analyticSeconds(plan kernel.Executable, ss *schedule.SuperSchedule, p kernel.MachineProfile) float64 {
	threads := ss.Threads
	if p.ThreadCap > 0 && threads > p.ThreadCap {
		threads = p.ThreadCap
	}
	if threads < 1 {
		threads = 1
	}
	return plan.EstimateWork() * 1e-9 / float64(threads)
}

// tunerDigest identifies what a tuner serves: its indexed schedule list and
// the top-K candidate list it retrieves for each probe matrix. Two runs that
// print the same digest served the same tuner.
func tunerDigest(ctx context.Context, tun *core.Tuner, probes []*tensor.COO) (string, error) {
	h := sha256.New()
	for _, ss := range tun.Index.Schedules {
		fmt.Fprintln(h, ss.String())
	}
	for _, c := range probes {
		lst, err := topK(ctx, tun, c, tun.Cfg.TopK)
		if err != nil {
			return "", err
		}
		for _, cand := range lst {
			fmt.Fprintf(h, "%s %x\n", cand.Schedule, cand.Cost)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
