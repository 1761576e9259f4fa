package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"waco/internal/cluster"
	"waco/internal/core"
	"waco/internal/metrics"
	"waco/internal/obslog"
	"waco/internal/serve"
)

// replicaCount is the size of the serving fleet behind the router.
const replicaCount = 2

// fleet is the system under test: replicaCount serve.Server replicas over
// loopback HTTP, sharing one tuner, behind one cluster.Router. Options are
// the waco-serve and waco-router defaults; access logs are discarded and
// each replica writes an observation log, as a production replica does.
type fleet struct {
	servers    []*serve.Server
	obslogs    []*obslog.Log
	replicaURL []string
	logPaths   []string
	router     *cluster.Router
	routerReg  *metrics.Registry
	routerURL  string
	https      []*http.Server
	serveErrs  chan error
}

// startFleet starts the replicas and the router, and returns once the
// router reports every replica healthy. tr, when non-nil, swaps in the
// traced replica handler and router transport.
func startFleet(tun *core.Tuner, dir string, tr *tracer) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{serveErrs: make(chan error, replicaCount+1), routerReg: metrics.NewRegistry()}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i := 0; i < replicaCount; i++ {
		path := filepath.Join(dir, fmt.Sprintf("replica%d.obslog", i))
		lg, err := obslog.Open(path, obslog.Options{Host: "bench", Buffer: 256})
		if err != nil {
			f.close()
			return nil, err
		}
		f.logPaths = append(f.logPaths, path)
		f.obslogs = append(f.obslogs, lg)
		srv, err := serve.NewServer(tun, serve.Options{
			CacheSize:      1024,
			MaxWorkers:     2,
			RequestTimeout: 2 * time.Minute,
			MaxJobs:        256,
			JobTTL:         10 * time.Minute,
			Logger:         quiet,
			ObsLog:         lg,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.replicaHandler(srv)
		}
		u, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicaURL = append(f.replicaURL, u)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}}
	if tr != nil {
		client.Transport = tr.forwardTransport(client.Transport)
	}
	rt, err := cluster.NewRouter(cluster.Options{
		Replicas:       f.replicaURL,
		LoadFactor:     1.25,
		HealthInterval: 2 * time.Second,
		ProbeTimeout:   time.Second,
		Client:         client,
		Seed:           1,
		Registry:       f.routerReg,
		Logger:         quiet,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.routerURL, err = f.listen(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, f.waitHealthy(10 * time.Second)
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			f.serveErrs <- err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the router until every replica passes readiness.
func (f *fleet) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st := f.router.Stats()
		probed := true
		for _, r := range st.Replicas {
			probed = probed && !r.LastProbe.IsZero()
		}
		if probed && st.HealthyReplicas == replicaCount {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d replicas healthy after %v", st.HealthyReplicas, replicaCount, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flushLogs forces every buffered observation record to disk.
func (f *fleet) flushLogs() error {
	for _, lg := range f.obslogs {
		if err := lg.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// close stops the HTTP listeners, the router's prober, the replicas and
// their logs, and waits for each to finish.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range f.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		errs = append(errs, s.Close(ctx))
	}
	for _, lg := range f.obslogs {
		errs = append(errs, lg.Close())
	}
	select {
	case err := <-f.serveErrs:
		errs = append(errs, err)
	default:
	}
	return errors.Join(errs...)
}
