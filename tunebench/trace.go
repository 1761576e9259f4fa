package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"waco/internal/core"
	"waco/internal/costmodel"
	"waco/internal/metrics"
	"waco/internal/obslog"
	"waco/internal/schedule"
	"waco/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the enclosing span, -1 for the client's
// round trip. Derived spans are laid out from counter deltas the program
// exports rather than timed directly: they have the right length, and sit
// in order inside their parent.
type span struct {
	Name    string    `json:"name"`
	Req     int64     `json:"req"`
	Parent  int       `json:"parent"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Derived bool      `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer records spans in memory around the benchmark's own calls into each
// layer: the client's round trip through the router, the router's round
// trip to a replica, and on the replica the body decode, the fingerprint
// and the Server.Tune or Server.Predict call. The router forwards only the
// body, so the router and replica sides find a request's id by hashing it.
type tracer struct {
	tun   *core.Tuner
	index map[string]*schedule.SuperSchedule
	fl    *fleet
	seed  maphash.Seed

	mu     sync.Mutex
	spans  []span
	byBody map[uint64]int64
	open   map[int64]map[string]int // request -> span name -> latest span index
	nextID int64
	base   counters // at the start of the current request
}

func newTracer(tun *core.Tuner, index map[string]*schedule.SuperSchedule) *tracer {
	return &tracer{tun: tun, index: index, seed: maphash.MakeSeed(),
		byBody: map[uint64]int64{}, open: map[int64]map[string]int{}}
}

// parentOf fixes the span hierarchy.
var parentOf = map[string]string{
	"cluster.route":     "",
	"cluster.forward":   "cluster.route",
	"serve.http":        "cluster.forward",
	"serve.decode":      "serve.http",
	"serve.fingerprint": "serve.http",
	"serve.tune":        "serve.http",
	"serve.predict":     "serve.http",
}

func (tr *tracer) begin(req int64, name string, start time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent := -1
	if p := parentOf[name]; p != "" {
		if id, ok := tr.open[req][p]; ok {
			parent = id
		}
	}
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: start})
	id := len(tr.spans) - 1
	if tr.open[req] == nil {
		tr.open[req] = map[string]int{}
	}
	tr.open[req][name] = id
	return id
}

func (tr *tracer) end(id int) {
	now := time.Now()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

func (tr *tracer) record(req int64, name string, start, end time.Time) {
	id := tr.begin(req, name, start)
	tr.mu.Lock()
	tr.spans[id].End = end
	tr.mu.Unlock()
}

// lookup returns the id the client registered for a body, or 0 for a
// request the client did not send (such as a warm-up).
func (tr *tracer) lookup(body []byte) int64 {
	h := maphash.Bytes(tr.seed, body)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.byBody[h]
}

// replicaHandler serves /v1/tune and /v1/predict through the public entry
// points the server's own handler uses, each inside a span; every other
// path goes to the server's handler unchanged.
func (tr *tracer) replicaHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/v1/tune", func(w http.ResponseWriter, r *http.Request) { tr.serveTraced(w, r, srv, false) })
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { tr.serveTraced(w, r, srv, true) })
	return mux
}

func (tr *tracer) serveTraced(w http.ResponseWriter, r *http.Request, srv *serve.Server, predict bool) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := tr.lookup(body)
	if req == 0 {
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
		return
	}
	id := tr.begin(req, "serve.http", start)
	defer tr.end(id)

	t0 := time.Now()
	var in serve.PredictRequest // a superset of TuneRequest's fields
	if err := json.Unmarshal(body, &in); err != nil || in.Matrix == nil {
		http.Error(w, "malformed request body", http.StatusBadRequest)
		return
	}
	coo, err := in.Matrix.ToCOO()
	tr.record(req, "serve.decode", t0, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t1 := time.Now()
	serve.Fingerprint(coo)
	tr.record(req, "serve.fingerprint", t1, time.Now())

	t2 := time.Now()
	var res any
	name := "serve.tune"
	if predict {
		name = "serve.predict"
		var scheds []serve.Predicted
		scheds, err = srv.Predict(r.Context(), coo, in.K)
		res = serve.PredictResponse{Schedules: scheds}
	} else {
		res, err = srv.Tune(r.Context(), coo)
	}
	tr.record(req, name, t2, time.Now())
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrShuttingDown) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "tunebench: encoding answer:", err)
	}
}

// forwardTransport wraps the router's client transport so each proxied
// attempt becomes a cluster.forward span, ended when the router closes the
// replica's response body.
func (tr *tracer) forwardTransport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.GetBody == nil { // readiness probes carry no body
			return base.RoundTrip(r)
		}
		rc, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		req := tr.lookup(body)
		if req == 0 {
			return base.RoundTrip(r)
		}
		id := tr.begin(req, "cluster.forward", time.Now())
		resp, err := base.RoundTrip(r)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { tr.end(id) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// before registers the request's body, snapshots the counters so the
// request's inner layers can be laid out from their deltas, and opens the
// request's root span.
func (tr *tracer) before(r request) int64 {
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.byBody[maphash.Bytes(tr.seed, r.body)] = id
	tr.mu.Unlock()
	tr.base = snapshot(tr.tun, tr.fl)
	tr.begin(id, "cluster.route", time.Now())
	return id
}

func (tr *tracer) after(id int64, r request, o *outcome) {
	tr.mu.Lock()
	root := tr.open[id]["cluster.route"]
	tr.spans[root].End = tr.spans[root].Start.Add(o.lat)
	tr.mu.Unlock()
	if o.fail != "" {
		return
	}
	d := snapshot(tr.tun, tr.fl).minus(tr.base)
	var extra time.Duration
	if o.pred == nil && !o.tune.Cached {
		extra = tr.serveOwnWork(r, o)
	}
	tr.derive(id, d, extra)
}

// serveOwnWork times, outside the request, the calls Server.Tune makes on
// a cold request besides Tuner.TuneTensorContext: validation, the
// fingerprint, and the predicted cost of the winner (a second feature
// extraction). The remainder of the Server.Tune span, less the queue wait,
// is attributed to the core layer.
func (tr *tracer) serveOwnWork(r request, o *outcome) time.Duration {
	t0 := time.Now()
	if r.coo.Validate() != nil {
		return 0
	}
	serve.Fingerprint(r.coo)
	if ss := tr.index[o.tune.Schedule]; ss != nil {
		if _, err := tr.tun.Model.Cost(costmodel.NewPattern(r.coo), ss); err != nil {
			return 0
		}
	}
	return time.Since(t0)
}

// derive lays the request's counter deltas out as spans inside its
// Server.Tune or Server.Predict span: the pool queue wait, then for an
// uncached tune the core layer (holding the search stages and the kernel
// busy time), and for a predict the search stages directly.
func (tr *tracer) derive(req int64, d counters, serveOwn time.Duration) {
	tr.mu.Lock()
	callID, ok := tr.open[req]["serve.tune"]
	if !ok {
		callID, ok = tr.open[req]["serve.predict"]
	}
	if !ok {
		tr.mu.Unlock()
		return
	}
	call := tr.spans[callID]
	tr.mu.Unlock()

	// lay appends a derived span at cursor, clipped to the call, and
	// returns its index and end.
	cursor := call.Start
	lay := func(name string, parent int, length time.Duration) (int, time.Time) {
		if room := call.End.Sub(cursor); length > room {
			length = room
		}
		if length < 0 {
			length = 0
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: cursor, End: cursor.Add(length), Derived: true})
		return len(tr.spans) - 1, cursor.Add(length)
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	_, cursor = lay("serve.queue_wait", callID, secs(d.queueWait))
	parent := callID
	if call.Name == "serve.tune" {
		if d.searches == 0 {
			return // a cache hit never reaches the core layer
		}
		parent, _ = lay("core.tune", callID, call.End.Sub(cursor)-serveOwn)
	}
	for _, st := range []struct {
		name string
		secs float64
	}{
		{"search.feature", d.feature},
		{"search.query", d.traverse + d.eval + d.prefilter},
		{"kernel.busy", d.busy},
	} {
		_, cursor = lay(st.name, parent, secs(st.secs))
	}
}

// counters is a snapshot of the program's exported counters that the
// per-layer metrics need, summed over replicas.
type counters struct {
	feature, eval, traverse, prefilter, evals, queries float64 // search
	busy, runs                                         float64 // kernel
	hits, misses, searches, queueWait, predicts        float64 // serve
	records, dropped                                   float64 // obslog
	attempts, attempted                                float64 // router
}

func snapshot(tun *core.Tuner, f *fleet) counters {
	var c counters
	if m := tun.Index.Metrics; m != nil {
		c.feature, c.eval = m.FeatureSeconds.Sum(), m.EvalSeconds.Sum()
		c.traverse, c.prefilter = m.TraversalSeconds.Sum(), m.PrefilterSeconds.Sum()
		c.evals, c.queries = m.EvalsPerQuery.Sum(), float64(m.EvalsPerQuery.Count())
	}
	if m := tun.KernelMetrics; m != nil {
		c.busy, c.runs = m.BusySeconds.Value(), m.Runs.Value()
	}
	val := func(reg *metrics.Registry, name string) float64 {
		v, _ := reg.Value(name, nil)
		return v
	}
	for _, s := range f.servers {
		reg := s.Registry()
		c.hits += val(reg, "waco_cache_hits_total")
		c.misses += val(reg, "waco_cache_misses_total")
		c.searches += val(reg, "waco_searches_total")
		c.predicts += val(reg, "waco_predict_requests_total")
		c.queueWait += promValue(reg, "waco_pool_queue_wait_seconds_sum")
	}
	for _, lg := range f.obslogs {
		c.records += float64(lg.Appended())
		c.dropped += float64(lg.Dropped())
	}
	c.attempts = promValue(f.routerReg, "waco_router_attempts_per_request_sum")
	c.attempted = promValue(f.routerReg, "waco_router_attempts_per_request_count")
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		feature: c.feature - o.feature, eval: c.eval - o.eval, traverse: c.traverse - o.traverse,
		prefilter: c.prefilter - o.prefilter, evals: c.evals - o.evals, queries: c.queries - o.queries,
		busy: c.busy - o.busy, runs: c.runs - o.runs,
		hits: c.hits - o.hits, misses: c.misses - o.misses, searches: c.searches - o.searches,
		queueWait: c.queueWait - o.queueWait, predicts: c.predicts - o.predicts,
		records: c.records - o.records, dropped: c.dropped - o.dropped,
		attempts: c.attempts - o.attempts, attempted: c.attempted - o.attempted,
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		covered := time.Duration(0)
		var reach time.Time
		for _, v := range ivs {
			if v.a.Before(reach) {
				v.a = reach
			}
			if v.b.After(v.a) {
				covered += v.b.Sub(v.a)
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTimes sums self time and duration per span name, and returns the
// number of root spans and their total duration.
type layerTimes struct {
	self, total map[string]time.Duration
	count       map[string]int
	roots       int
	rootTotal   time.Duration
	covered     time.Duration // self time of every span below a root
}

func summarize(spans []span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		lt.self[s.Name] += st
		lt.total[s.Name] += s.dur()
		lt.count[s.Name]++
		if s.Parent < 0 {
			lt.roots++
			lt.rootTotal += s.dur()
		} else {
			lt.covered += st
		}
	}
	return lt
}

// dump writes the spans as JSON lines.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeWaste is the share of probe time spent on candidates more than ten
// times slower than the winner of their tune, over the observation records
// appended after skip[i] records of log i. Probes share one repeat count,
// so recorded medians weight the shares as the runs do.
func probeWaste(paths []string, skip []int) (float64, error) {
	var wasted, total float64
	for i, p := range paths {
		recs, err := obslog.ReadFile(p)
		if err != nil {
			return 0, err
		}
		if skip[i] > len(recs) {
			continue
		}
		recs = recs[skip[i]:]
		best := map[string]float64{}
		for _, r := range recs {
			if b, ok := best[r.Fingerprint]; !ok || r.Seconds < b {
				best[r.Fingerprint] = r.Seconds
			}
		}
		for _, r := range recs {
			total += r.Seconds
			if r.Seconds > 10*best[r.Fingerprint] {
				wasted += r.Seconds
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return wasted / total, nil
}
