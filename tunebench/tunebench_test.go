package main

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"waco/internal/core"
	"waco/internal/serve"
)

var (
	sharedOnce  sync.Once
	sharedTuner *core.Tuner
	sharedErr   error
)

// tuner builds the benchmark's tuner once per test binary.
func tuner(t *testing.T) *core.Tuner {
	t.Helper()
	sharedOnce.Do(func() { sharedTuner, _, sharedErr = buildTuner(context.Background()) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedTuner
}

// TestTunerBuildIsDeterministic: two builds index the same schedules in the
// same order and retrieve the same top-K candidates, with the same costs,
// for the first tune-cold matrices of two workload seeds.
func TestTunerBuildIsDeterministic(t *testing.T) {
	ctx := context.Background()
	a := tuner(t)
	b, _, err := buildTuner(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Index.Schedules) != len(b.Index.Schedules) {
		t.Fatalf("index sizes %d and %d", len(a.Index.Schedules), len(b.Index.Schedules))
	}
	for i := range a.Index.Schedules {
		if sa, sb := a.Index.Schedules[i].String(), b.Index.Schedules[i].String(); sa != sb {
			t.Fatalf("schedule %d: %s vs %s", i, sa, sb)
		}
	}
	for _, seed := range []int64{1, 2} {
		for i := 0; i < digestProbes; i++ {
			c := powerLawMatrix(seed, i)
			ka, err := topK(ctx, a, c, a.Cfg.TopK)
			if err != nil {
				t.Fatal(err)
			}
			kb, err := topK(ctx, b, c, b.Cfg.TopK)
			if err != nil {
				t.Fatal(err)
			}
			if len(ka) == 0 || !reflect.DeepEqual(ka, kb) {
				t.Fatalf("seed %d matrix %d: top-K %v vs %v", seed, i, ka, kb)
			}
		}
	}
	da, err := tunerDigest(ctx, a, probeMatrices())
	if err != nil {
		t.Fatal(err)
	}
	db, err := tunerDigest(ctx, b, probeMatrices())
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digests %s and %s", da, db)
	}
}

// TestChecksRejectWrongAnswers: each workload's check accepts the right
// answer and rejects a corrupted one.
func TestChecksRejectWrongAnswers(t *testing.T) {
	ctx := context.Background()
	tun := tuner(t)
	ck := newChecker(tun)

	r, err := newRequest(workloads["tune-cold"], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := tun.TuneTensorContext(ctx, r.coo)
	if err != nil {
		t.Fatal(err)
	}
	good := outcome{req: r, tune: serve.TuneResult{Fingerprint: serve.Fingerprint(r.coo), Schedule: tuned.Schedule.String()}}
	if err := ck.checkTune(&good); err != nil {
		t.Fatalf("right tune answer rejected: %v", err)
	}
	bad := good
	bad.tune.Schedule = "SpMM|not a schedule"
	if ck.checkTune(&bad) == nil {
		t.Fatal("schedule outside the index accepted")
	}
	bad = good
	bad.tune.Fingerprint = "0"
	if ck.checkTune(&bad) == nil {
		t.Fatal("answer for another matrix accepted")
	}

	pr, err := newRequest(workloads["predict-cold"], 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topK(ctx, tun, pr.coo, predictK)
	if err != nil {
		t.Fatal(err)
	}
	p := outcome{req: pr, pred: want}
	if err := ck.checkPredict(ctx, &p); err != nil {
		t.Fatalf("right predict answer rejected: %v", err)
	}
	swapped := append([]serve.Predicted(nil), want...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	p.pred = swapped
	if ck.checkPredict(ctx, &p) == nil {
		t.Fatal("reordered top-k accepted")
	}

	ck.warm = [][]serve.TuneResult{{good.tune}}
	hot := outcome{req: request{idx: 0}, tune: good.tune}
	hot.tune.Cached = true
	if err := ck.checkHot(&hot); err != nil {
		t.Fatalf("cached warm-up answer rejected: %v", err)
	}
	hot.tune.Cached = false
	if ck.checkHot(&hot) == nil {
		t.Fatal("uncached answer accepted on the hot workload")
	}
	hot.tune.Cached = true
	hot.tune.KernelSeconds = 1
	if ck.checkHot(&hot) == nil {
		t.Fatal("answer differing from the warm-up accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(40)},
		{Name: "b", Parent: 0, Start: at(30), End: at(60)}, // overlaps a by 10
		{Name: "c", Parent: 1, Start: at(20), End: at(50)}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond, 30 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	lt := summarize(spans)
	if lt.roots != 1 || lt.rootTotal != 100*time.Millisecond || lt.covered != 70*time.Millisecond {
		t.Fatalf("summary %+v", lt)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestSpreadCoversRange: any hundred consecutive requests put between 8
// and 12 in each tenth of the range, whatever the seed; independent uniform
// draws would often stray further.
func TestSpreadCoversRange(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		for _, step := range []float64{0.6180339887498949, 0.4142135623730951} {
			var tenths [10]int
			for i := 37; i < 137; i++ {
				tenths[int(10*spread(seed, i, step))]++
			}
			for k, n := range tenths {
				if n < 8 || n > 12 {
					t.Fatalf("seed %d step %v: tenth %d holds %d of 100", seed, step, k, n)
				}
			}
		}
	}
}
