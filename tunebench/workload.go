package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"

	"waco/internal/generate"
	"waco/internal/serve"
	"waco/internal/tensor"
)

// workload is one named closed-loop request mix from a single client, which
// sends its next request only after the previous answer arrived. One client
// keeps the fleet off the second CPU's contention: two clients on tune-hot
// spread p50 across runs by 0.22, one client by 0.05 (see README.md).
type workload struct {
	name string
	path string // endpoint on the router
	hot  bool   // repeat a warmed pool of hotPool matrices
}

var workloads = map[string]workload{
	"tune-cold":    {name: "tune-cold", path: "/v1/tune"},
	"predict-cold": {name: "predict-cold", path: "/v1/predict"},
	"tune-hot":     {name: "tune-hot", path: "/v1/tune", hot: true},
}

const (
	matrixN  = 1024
	hotPool  = 16 // tune-hot's repeated matrices
	predictK = 5
	// tracedOffset separates the traced pass's fresh matrices from the
	// untraced pass's, so cold requests stay cold in both.
	tracedOffset = 1 << 20
)

// request is one generated input: the matrix as the server decodes it, and
// its wire body.
type request struct {
	idx  int
	coo  *tensor.COO
	body []byte
}

func matrixRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// spread places request i of a run in [0, 1) along a low-discrepancy
// sequence whose phase the seed draws: any stretch of consecutive requests
// covers the range evenly, so runs with different seeds hold the same mix
// of sizes and skews and differ only in the matrices drawn with it.
func spread(seed int64, i int, step float64) float64 {
	phase := rand.New(rand.NewSource(seed)).Float64()
	x := phase + float64(i)*step
	return x - math.Floor(x)
}

// powerLawMatrix is tune-cold's i-th matrix: power-law rows at n=1024 with
// ~3.5-5k nonzeros (a 5000-6500 target; the generator drops budgets below
// one per row) and skew alpha in [0.8, 1.6).
func powerLawMatrix(seed int64, i int) *tensor.COO {
	nnz := 5000 + int(1500*spread(seed, i, 0.6180339887498949))
	alpha := 0.8 + 0.8*spread(seed+1, i, 0.4142135623730951)
	return generate.PowerLawRows(matrixRNG(seed, i), matrixN, matrixN, nnz, alpha)
}

// familyMatrix is predict-cold's i-th matrix: the generator families in
// turn, at n=1024 with at most 6k nonzeros, so every run holds the same
// family mix.
func familyMatrix(seed int64, i int) *tensor.COO {
	rng := matrixRNG(seed, i)
	fam := generate.Families[i%len(generate.Families)]
	c := generate.FromFamily(rng, fam, generate.CorpusConfig{MinDim: matrixN, MaxDim: matrixN, MaxNNZ: 6000, Square: true})
	if c.NNZ() == 0 {
		c = generate.Uniform(rng, matrixN, matrixN, 4*matrixN)
	}
	return c
}

// newRequest builds request i of the workload for the seed.
func newRequest(w workload, seed int64, i int) (request, error) {
	var c *tensor.COO
	if w.name == "predict-cold" {
		c = familyMatrix(seed, i)
	} else {
		c = powerLawMatrix(seed, i)
	}
	mj := &serve.MatrixJSON{Dims: c.Dims, Coords: c.Coords, Vals: c.Vals}
	var msg any = serve.TuneRequest{Matrix: mj}
	if w.path == "/v1/predict" {
		msg = serve.PredictRequest{Matrix: mj, K: predictK}
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return request{}, err
	}
	// Checks run on the matrix exactly as the replica decodes it.
	coo, err := mj.ToCOO()
	if err != nil {
		return request{}, err
	}
	return request{idx: i, coo: coo, body: body}, nil
}

// outcome is one attempted request. fail is empty for a request that got a
// 2xx answer and passed every check.
type outcome struct {
	req  request
	lat  time.Duration
	fail string
	tune serve.TuneResult
	pred []serve.Predicted
}

// pass is one timed closed-loop run of a workload.
type pass struct {
	outcomes []outcome
	active   time.Duration // time spent on requests
}

func (p *pass) succeeded() int {
	n := 0
	for _, o := range p.outcomes {
		if o.fail == "" {
			n++
		}
	}
	return n
}

// latenciesMS returns every attempted request's latency; a failed request
// counts as the whole pass length, so it misses every latency limit.
func (p *pass) latenciesMS() []float64 {
	xs := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		xs[i] = ms(o.lat)
		if o.fail != "" {
			xs[i] = ms(p.active)
		}
	}
	return xs
}

// source yields the pass's i-th request.
type source func(i int) (request, error)

// coldSource gives every request a never-seen matrix.
func coldSource(w workload, seed int64, offset int) source {
	return func(i int) (request, error) { return newRequest(w, seed, offset+i) }
}

// hotSource cycles over a pre-built pool.
func hotSource(pool []request) source {
	return func(i int) (request, error) { return pool[i%len(pool)], nil }
}

// requestHooks lets the traced pass wrap each request.
type requestHooks interface {
	before(r request) int64
	after(id int64, r request, o *outcome)
}

// runPass sends requests to url until dur has been spent on them. Input
// generation is not timed.
func runPass(ctx context.Context, hc *http.Client, w workload, url string, src source, dur time.Duration, hooks requestHooks) (*pass, error) {
	p := &pass{}
	for i := 0; p.active < dur; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := src(i)
		if err != nil {
			return nil, err
		}
		var id int64
		if hooks != nil {
			id = hooks.before(r)
		}
		t0 := time.Now()
		status, body, err := post(ctx, hc, url+w.path, r.body)
		o := outcome{req: r, lat: time.Since(t0)}
		o.decode(w, status, body, err)
		p.active += time.Since(t0)
		if hooks != nil {
			hooks.after(id, r, &o)
		}
		if !w.hot {
			o.req = request{idx: r.idx} // see checker.regen
		}
		p.outcomes = append(p.outcomes, o)
	}
	return p, nil
}

// decode fills in the answer, or the reason the request failed: transport
// errors, non-2xx statuses (shed 503s included) and undecodable bodies.
func (o *outcome) decode(w workload, status int, body []byte, err error) {
	switch {
	case err != nil:
		o.fail = "transport: " + err.Error()
		return
	case status < 200 || status > 299:
		o.fail = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		return
	}
	if w.path == "/v1/predict" {
		var pr serve.PredictResponse
		err = json.Unmarshal(body, &pr)
		o.pred = pr.Schedules
	} else {
		err = json.Unmarshal(body, &o.tune)
	}
	if err != nil {
		o.fail = "undecodable answer: " + err.Error()
	}
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warm tunes every pool matrix on each replica directly, so the timed pass
// is all cache hits wherever the router sends a request. It returns each
// replica's answers, which later cached answers must equal.
func warm(ctx context.Context, hc *http.Client, replicas []string, pool []request) ([][]serve.TuneResult, error) {
	out := make([][]serve.TuneResult, len(replicas))
	for ri, u := range replicas {
		for _, r := range pool {
			status, body, err := post(ctx, hc, u+"/v1/tune", r.body)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("warm-up: status %d: %s", status, body)
			}
			var res serve.TuneResult
			if err := json.Unmarshal(body, &res); err != nil {
				return nil, err
			}
			out[ri] = append(out[ri], res)
		}
	}
	return out, nil
}
